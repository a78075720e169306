// Serializable-snapshot-isolation conflict tracker (SSI; Cahill et al.,
// refined by PostgreSQL's predicate.c).
//
// Snapshot isolation admits exactly the histories whose direct
// serialization graph has a cycle through two consecutive rw-antidependency
// edges: I --rw--> P --rw--> O where the three are pairwise concurrent and O
// commits first (the "dangerous structure"; P is the pivot). SSI therefore
// leaves SIREAD markers behind every snapshot read a kSerializable
// transaction performs — one SsiTarget per entity for point reads, per
// adjacency anchor for traversals, per index name (with the scanned value
// range) for index scans, and one for the all-nodes scan — and records an
// rw-antidependency edge whenever
//
//   * a written target is covered by an existing marker (write-time
//     detection: the reader read before this write), or
//   * a reader's chain walk or index scan observes a version committed
//     after its snapshot (read-time detection: the writer committed before
//     this read; the markers could not have caught it).
//
// A transaction found to be the pivot of a dangerous structure aborts with
// Status::SerializationFailure; when the pivot has already committed, the
// still-active participant is aborted instead (doomed flag, or the reader
// that discovered the committed pivot fails immediately).
//
// Markers and transaction records outlive their transaction's commit — the
// read-only-anomaly history is only caught because a committed reader's
// marker dooms a later writer — and become prunable once no concurrent
// serializable transaction remains (commit_ts <= oldest tracked active
// start_ts, the same retention rule PostgreSQL uses for SIREAD locks).
//
// The one marker table is sharded like the 64-way LockManager. Lock hierarchy:
// commit_mu_ > shard/registry mutex > SsiTxnInfo::mu (two infos always in
// ascending txn-id order). State fields read during danger evaluation
// (state, commit_ts, doomed) are atomics, so peers are inspected without
// taking their mutexes.
//
// Cross-isolation caveat (the PostgreSQL stance): serializability is
// guaranteed among kSerializable transactions only. Writes committed by
// kSnapshotIsolation / kReadCommitted transactions still appear to
// serializable readers as anonymous conflicts-out, but such writers scan no
// markers themselves.

#ifndef NEOSI_TXN_SSI_TRACKER_H_
#define NEOSI_TXN_SSI_TRACKER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/property_value.h"
#include "common/status.h"
#include "common/types.h"

namespace neosi {

/// Lifecycle of a tracked serializable transaction. kCommitting (between the
/// pre-commit danger check and the commit-timestamp publication) is treated
/// as committed-with-unknown-timestamp by every danger evaluation — the
/// conservative direction.
enum class SsiTxnState : uint8_t {
  kActive = 0,
  kCommitting = 1,
  kCommitted = 2,
  kAborted = 3,
};

/// Per-transaction SSI record. Outlives the Transaction handle (markers and
/// edges must survive commit); owned by shared_ptr from the registry, the
/// marker table and peer edge lists.
struct SsiTxnInfo {
  TxnId id = kNoTxn;
  /// Snapshot timestamp; 0 until SetStartTs (the Begin() window between
  /// tracker registration and snapshot acquisition), which pruning treats
  /// as "older than everything" — the conservative direction.
  std::atomic<Timestamp> start_ts{kNoTimestamp};
  std::atomic<Timestamp> commit_ts{kNoTimestamp};
  std::atomic<SsiTxnState> state{SsiTxnState::kActive};
  /// Set by a committing peer whose dangerous structure this transaction
  /// pivots; the victim fails its next operation or commit.
  std::atomic<bool> doomed{false};
  bool read_only = false;

  /// One rw-antidependency out-edge (this transaction read a version the
  /// peer overwrote). `peer` is null for writers outside the tracker
  /// (SI/RC transactions, or serializable writers already pruned); their
  /// commit timestamp is all a danger check needs from an out-neighbour.
  struct OutEdge {
    std::shared_ptr<SsiTxnInfo> peer;
    Timestamp anon_commit_ts = kNoTimestamp;
  };

  /// Guards in_ / out_ only; all other fields are atomics or set-once.
  std::mutex mu;
  std::vector<std::shared_ptr<SsiTxnInfo>> in_;  ///< I with I --rw--> this.
  std::vector<OutEdge> out_;                     ///< O with this --rw--> O.
};

/// What a SIREAD marker covers and what a write touches: one key per
/// entity, adjacency anchor, the all-nodes scan, or index name, plus the
/// value a written index tuple carries. The key's top three bits hold the
/// kind; the rest hold the id or, for an index, the IndexId and a hash of
/// the label or property key NAME, so a scan marks a name before any token
/// exists for it. An id or hash that overflows its bits can only merge two
/// targets, which adds conflicts and never loses one.
struct SsiTarget {
  uint64_t key = 0;
  PropertyValue value;  ///< A written index tuple's value; null otherwise.

  static SsiTarget Entity(const EntityKey& entity) {
    return {Tagged(entity.type == EntityType::kNode ? 0 : 1, entity.id), {}};
  }
  static SsiTarget Adjacency(NodeId node) { return {Tagged(2, node), {}}; }
  static SsiTarget AllNodes() { return {Tagged(3, 0), {}}; }
  /// The index tuple (name, value) in index `which`; a scan's target
  /// leaves the value null and carries its range to AddRead instead.
  static SsiTarget Index(IndexId which, std::string_view name,
                         PropertyValue value = {}) {
    const uint64_t hash = std::hash<std::string_view>{}(name);
    return {Tagged(4, static_cast<uint64_t>(which) << 59 | hash >> 5),
            std::move(value)};
  }

 private:
  static uint64_t Tagged(uint64_t kind, uint64_t payload) {
    return kind << 61 | (payload & ((uint64_t{1} << 61) - 1));
  }
};

/// Counters surfaced through DatabaseStats.
struct SsiTrackerStats {
  uint64_t tracked_txns = 0;    ///< Lifetime registrations (safe excluded).
  uint64_t safe_snapshots = 0;  ///< Read-only txns that skipped tracking.
  uint64_t aborts_pivot = 0;    ///< Dangerous-structure aborts (self-found).
  uint64_t aborts_doomed = 0;   ///< Victims doomed by a committing peer.
};

/// Sharded SIREAD-marker table + rw-antidependency edge registry.
class SsiTracker {
 public:
  SsiTracker();

  SsiTracker(const SsiTracker&) = delete;
  SsiTracker& operator=(const SsiTracker&) = delete;

  // --- registration --------------------------------------------------------

  /// Registers a serializable transaction. Read-write transactions MUST
  /// register BEFORE acquiring their snapshot (so the safe-snapshot probe
  /// below cannot miss a concurrent read-write peer); SetStartTs() follows
  /// once the snapshot timestamp is known.
  std::shared_ptr<SsiTxnInfo> Register(TxnId id, bool read_only);
  void SetStartTs(const std::shared_ptr<SsiTxnInfo>& info, Timestamp start_ts);

  /// Raises the future-snapshot lower bound (monotonic). The engine calls
  /// this AFTER the oracle's ordered publication of a commit timestamp:
  /// from then on no new snapshot can predate `ts`, so commits at-or-below
  /// it become eligible for pruning (see Prunable).
  void AdvanceSnapshotFloor(Timestamp ts);

  /// Safe-snapshot probe for a read-only transaction that acquired
  /// `snapshot_ts` BEFORE probing. Safe means no read-write serializable
  /// peer concurrent with the snapshot can still commit: (a) no read-write
  /// transaction is registered and unfinished, and (b) every finished one
  /// committed at or below `snapshot_ts`. Check (b) closes the ordered-
  /// publication window — a peer finishes the tracker BEFORE the oracle
  /// publishes its commit timestamp, so a snapshot acquired in between
  /// predates a commit the active count no longer reflects; that peer can
  /// be the pivot of the read-only anomaly, so the snapshot is NOT safe.
  bool IsSnapshotSafe(Timestamp snapshot_ts) const;

  /// Counts a read-only transaction admitted on a safe snapshot (it never
  /// registers).
  void RecordSafeSnapshot() {
    safe_snapshots_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- reader side ---------------------------------------------------------

  /// SIREAD marker insert on `target`, covering the written values in
  /// [lo, hi] (either bound optional; inclusive; both absent cover every
  /// value, as a label scan and every non-index target do). Must be called
  /// BEFORE the corresponding chain walk / index scan (marker-then-read on
  /// this side, stamp-then-rescan on the writer side: one of the two orders
  /// always observes the other).
  void AddRead(const std::shared_ptr<SsiTxnInfo>& self,
               const SsiTarget& target,
               const std::optional<PropertyValue>& lo = std::nullopt,
               const std::optional<PropertyValue>& hi = std::nullopt);

  /// Read-time conflict-out: `self`'s walk/scan observed a version (or
  /// index interval) committed after its snapshot by `writer` (kNoTxn when
  /// unknown). Records the edge self --rw--> writer; fails with
  /// SerializationFailure when the edge completes a dangerous structure
  /// whose still-active participant is `self` (as pivot, or as the
  /// in-neighbour of an already-committed pivot). The caller rolls back.
  Status OnReadObservedCommit(const std::shared_ptr<SsiTxnInfo>& self,
                              TxnId writer, Timestamp writer_commit_ts);

  // --- writer side ---------------------------------------------------------

  /// Write-time marker scan for one target: records reader --rw--> self
  /// edges for every overlapping marker and fails with SerializationFailure
  /// when self becomes a dangerous pivot. The caller rolls back.
  Status OnWrite(const std::shared_ptr<SsiTxnInfo>& self,
                 const SsiTarget& target);

  /// Post-stamp rescan, after the commit timestamps landed on versions and
  /// index entries: records edges to markers inserted since the write-time
  /// scans. Never fails self (it is already committed); dangerous pivots
  /// found among the markers' owners are doomed instead.
  void OnPostStamp(const std::shared_ptr<SsiTxnInfo>& self,
                   const std::vector<SsiTarget>& writes);

  // --- lifecycle -----------------------------------------------------------

  /// Doomed-flag poll (the victim side of OnPostStamp / PreCommitCheck
  /// dooming). Fails with SerializationFailure when set; the caller rolls
  /// back.
  Status FailIfDoomed(const std::shared_ptr<SsiTxnInfo>& self);

  /// Serialized (commit_mu_) pre-commit danger check. First re-collects the
  /// SIREAD markers overlapping self's write targets and links any edges
  /// from readers whose markers landed after the write-time scans — without
  /// this, a reader that slipped its marker in and committed between
  /// OnWrite and this check would leave self an undetected committed pivot.
  /// Then fails self if doomed or a dangerous pivot; otherwise dooms any
  /// still-active in-neighbour that self's commit turns into a
  /// committed-out-first pivot, and moves self to kCommitting.
  ///
  /// commit_mu_ is handed back LOCKED in *commit_guard (on success and on
  /// failure alike). The caller must keep holding it through FinishCommit
  /// and OnPostStamp: a concurrent serializable reader whose marker misses
  /// this rescan can only reach its own PreCommitCheck after self's stamps
  /// and post-stamp edges are published, which is what makes its commit
  /// decision see the rw-edge to self. On failure the caller's guard simply
  /// unwinds on scope exit.
  Status PreCommitCheck(const std::shared_ptr<SsiTxnInfo>& self,
                        const std::vector<SsiTarget>& writes,
                        std::unique_lock<std::mutex>* commit_guard);

  /// Publishes the commit timestamp (writers: the oracle timestamp;
  /// read-only commits pass the newest read timestamp, the upper bound of
  /// everything they observed).
  void FinishCommit(const std::shared_ptr<SsiTxnInfo>& self, Timestamp ts);

  /// Abort notification (every rollback path). Idempotent.
  void Abort(const std::shared_ptr<SsiTxnInfo>& self);

  SsiTrackerStats Stats() const;

  /// Markers `txn` holds across the whole table (test accessor).
  size_t MarkerCount(TxnId txn);

 private:
  /// One SIREAD marker: its reader and, for a bounded index scan, the
  /// value range out of line (null covers every value).
  struct Marker {
    struct Range {
      std::optional<PropertyValue> lo, hi;
    };
    std::shared_ptr<SsiTxnInfo> reader;
    std::unique_ptr<Range> range;

    bool Covers(const PropertyValue& value) const {
      return range == nullptr ||
             ((!range->lo || !(value < *range->lo)) &&
              (!range->hi || !(*range->hi < value)));
    }
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Marker>> markers;  ///< By key.
  };

  Shard& ShardFor(uint64_t key);

  /// True when a marker or registry record can never participate in a new
  /// edge: its owner aborted, or committed at-or-below BOTH retention
  /// horizons (the oldest tracked active snapshot AND the published
  /// snapshot floor).
  bool Prunable(const SsiTxnInfo& info) const;

  /// Records reader --rw--> self for every other reader whose marker
  /// covers `target` (prunable markers dropped in passing), and returns
  /// those readers.
  std::vector<std::shared_ptr<SsiTxnInfo>> LinkReaders(
      const std::shared_ptr<SsiTxnInfo>& self, const SsiTarget& target);

  /// Records reader --rw--> writer (both tracked). Dedupes; locks the two
  /// infos in ascending txn-id order.
  static void LinkEdge(const std::shared_ptr<SsiTxnInfo>& reader,
                       const std::shared_ptr<SsiTxnInfo>& writer);

  /// The dangerous-structure predicate for pivot candidate `p` (caller
  /// holds p.mu): some out-neighbour committed (or is committing) — first,
  /// when p itself committed — and some in-neighbour is unfinished or
  /// committed at-or-after that out-neighbour.
  static bool DangerousPivot(const SsiTxnInfo& p);

  /// Dooms every still-active in-neighbour of `p` (used when p is found to
  /// be a dangerous pivot that already committed). Returns the number
  /// doomed.
  size_t DoomActiveInPeers(const std::shared_ptr<SsiTxnInfo>& p);

  void NoteFinished(const std::shared_ptr<SsiTxnInfo>& info);
  /// Recomputes min-active-start and sweeps prunable registry records;
  /// caller holds registry_mu_.
  void RecomputeRegistryLocked();

  /// Marker-table shards: the LockManager's fan-out. Only kSerializable
  /// transactions touch the table.
  static constexpr size_t kShardCount = 64;
  std::vector<Shard> shards_;

  mutable std::mutex registry_mu_;
  std::unordered_map<TxnId, std::shared_ptr<SsiTxnInfo>> registry_;
  /// min start_ts over unfinished tracked txns (kMaxTimestamp when none):
  /// the marker/registry retention horizon for ALREADY-REGISTERED readers.
  std::atomic<Timestamp> min_active_start_{kMaxTimestamp};
  /// Lower bound on every FUTURE snapshot: the read timestamp the engine
  /// last published (AdvanceSnapshotFloor after ordered publication). A
  /// committed transaction is only prunable once its commit_ts is at or
  /// below this floor too — the engine finishes the tracker BEFORE the
  /// oracle publishes, so a transaction beginning in that window can still
  /// acquire a snapshot older than the freshly committed timestamp and
  /// must find its markers, edges and registry record intact.
  std::atomic<Timestamp> snapshot_floor_{kNoTimestamp};
  std::atomic<uint64_t> active_rw_{0};
  /// High-water commit timestamp over finished read-write serializable
  /// transactions. FinishCommit raises it BEFORE NoteFinished drops
  /// active_rw_, and IsSnapshotSafe reads active_rw_ first — so a probe
  /// that observes zero active peers is guaranteed to observe the commit
  /// timestamp of every peer that finished, and can reject snapshots that
  /// predate one (the ordered-publication window).
  std::atomic<Timestamp> last_rw_commit_{kNoTimestamp};

  /// Serializes PreCommitCheck: the danger evaluation and the transition
  /// to kCommitting must be atomic across committers, or two write-skew
  /// halves could both pass and both commit.
  std::mutex commit_mu_;

  std::atomic<uint64_t> tracked_txns_{0};
  std::atomic<uint64_t> safe_snapshots_{0};
  std::atomic<uint64_t> aborts_pivot_{0};
  std::atomic<uint64_t> aborts_doomed_{0};
};

}  // namespace neosi

#endif  // NEOSI_TXN_SSI_TRACKER_H_
