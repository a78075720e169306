// Logical redo operations recorded in the write-ahead log.
//
// The WAL is logical: each committed transaction appends one record holding
// the list of graph mutations it performed, and recovery replays them
// through the physical GraphStore. Replay is idempotent (creates of in-use
// records and deletes of freed records are skipped) so a crash between WAL
// append and store write is always repairable.

#ifndef NEOSI_STORAGE_WAL_OPS_H_
#define NEOSI_STORAGE_WAL_OPS_H_

#include <string>
#include <vector>

#include "common/property_value.h"
#include "common/status.h"
#include "common/types.h"

namespace neosi {

/// Kind of logical mutation. Type bytes 3-6, 9 and 10 belonged to retired
/// per-property / per-label delta ops; they are never reused and decode as
/// Corruption.
enum class WalOpType : uint8_t {
  kCreateNode = 1,
  kDeleteNode = 2,
  kCreateRel = 7,
  kDeleteRel = 8,
  kCreateToken = 11,
  /// GC physical reclamation of a node record (paper §4 tombstone removal).
  kPurgeNode = 12,
  /// GC physical reclamation of a relationship record, including the chain
  /// pointers observed at purge time so crash recovery can redo the unlink
  /// surgery on the neighbour records idempotently.
  kPurgeRel = 13,
  /// Fuzzy checkpoint marker: `id` holds the stable LSN — every record
  /// below it had durably reached the stores when the marker was written,
  /// so recovery replays only from the last marker's stable LSN onward.
  /// No-op on replay apply.
  kCheckpoint = 14,
  /// Full node post-state (labels + props), the only node-update op. A
  /// delta op would need the pre-state from the store at replay, but the
  /// fuzzy checkpoint syncs nodes.store and props.store at different
  /// instants, so after a crash the node record and its property chain can
  /// disagree (unreadable or aliased chains). A full-state op is
  /// record-local — replay never reads a chain it did not itself write.
  kNodeState = 15,
  /// Full relationship post-state (props). Same rationale as kNodeState.
  kRelState = 16,
};

/// Token family for kCreateToken ops.
enum class TokenKind : uint8_t {
  kLabel = 0,
  kPropertyKey = 1,
  kRelType = 2,
};

/// One logical mutation. Fields beyond `type` and `id` are populated per
/// op kind (see the encoders in wal_ops.cc).
struct WalOp {
  WalOpType type = WalOpType::kCreateNode;
  uint64_t id = kInvalidId;  ///< Node / relationship / token id.

  NodeId src = kInvalidNodeId;       ///< kCreateRel / kPurgeRel
  NodeId dst = kInvalidNodeId;       ///< kCreateRel / kPurgeRel
  RelTypeId rel_type = kInvalidToken;  ///< kCreateRel

  /// Chain pointers at purge time (kPurgeRel only).
  RelId src_prev = kInvalidRelId;
  RelId src_next = kInvalidRelId;
  RelId dst_prev = kInvalidRelId;
  RelId dst_next = kInvalidRelId;

  std::vector<LabelId> labels;  ///< kCreateNode / kNodeState
  PropertyMap props;            ///< kCreateNode / kCreateRel / k*State

  TokenKind token_kind = TokenKind::kLabel;  ///< kCreateToken
  std::string name;                          ///< kCreateToken

  // Convenience constructors -------------------------------------------------
  static WalOp CreateNode(NodeId id, std::vector<LabelId> labels,
                          PropertyMap props);
  static WalOp DeleteNode(NodeId id);
  static WalOp NodeState(NodeId id, std::vector<LabelId> labels,
                         PropertyMap props);
  static WalOp RelState(RelId id, PropertyMap props);
  static WalOp CreateRel(RelId id, NodeId src, NodeId dst, RelTypeId type,
                         PropertyMap props);
  static WalOp DeleteRel(RelId id);
  static WalOp CreateToken(TokenKind kind, uint32_t id, std::string name);
  static WalOp PurgeNode(NodeId id);
  static WalOp PurgeRel(RelId id, NodeId src, NodeId dst, RelId src_prev,
                        RelId src_next, RelId dst_prev, RelId dst_next);
  static WalOp Checkpoint(Lsn stable_lsn);

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, WalOp* out);
};

/// One WAL entry: everything a transaction committed, or a standalone token
/// creation (txn_id == kNoTxn).
struct WalRecord {
  TxnId txn_id = kNoTxn;
  Timestamp commit_ts = kNoTimestamp;
  std::vector<WalOp> ops;
  /// Publication hint for replicas: a commit timestamp the producer
  /// observed as fully published (oracle ReadTs) at append time. Every
  /// commit with commit_ts <= publish_ts was appended at a strictly lower
  /// LSN, so a replica that has replayed all records below this one may
  /// advance its replay watermark to publish_ts even if intermediate
  /// timestamps were abandoned (commit I/O failure after timestamp
  /// allocation). Zero means "no hint"; zero is also what pre-replication
  /// records decode to, and records with a zero hint encode byte-identically
  /// to the legacy format.
  Timestamp publish_ts = kNoTimestamp;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, WalRecord* out);
};

}  // namespace neosi

#endif  // NEOSI_STORAGE_WAL_OPS_H_
