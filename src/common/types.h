// Core identifier and timestamp types shared by every neosi module.

#ifndef NEOSI_COMMON_TYPES_H_
#define NEOSI_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace neosi {

/// Node identifier; doubles as the record position in the node store file
/// (Neo4j addresses node records by id).
using NodeId = uint64_t;
/// Relationship identifier; record position in the relationship store file.
using RelId = uint64_t;
/// Property record identifier in the property store file.
using PropId = uint64_t;
/// Block identifier in the dynamic (string) store.
using DynId = uint64_t;

/// Label token id (labels are interned; never deleted, per Neo4j semantics).
using LabelId = uint32_t;
/// Property key token id.
using PropertyKeyId = uint32_t;
/// Relationship type token id.
using RelTypeId = uint32_t;

/// Commit / start timestamp. Timestamps are handed out by the
/// TimestampOracle; 0 means "uncommitted / no timestamp".
using Timestamp = uint64_t;
/// Transaction identifier (distinct space from timestamps).
using TxnId = uint64_t;
/// Log sequence number in the write-ahead log.
using Lsn = uint64_t;

inline constexpr uint64_t kInvalidId = std::numeric_limits<uint64_t>::max();
inline constexpr NodeId kInvalidNodeId = kInvalidId;
inline constexpr RelId kInvalidRelId = kInvalidId;
inline constexpr PropId kInvalidPropId = kInvalidId;
inline constexpr DynId kInvalidDynId = kInvalidId;
inline constexpr uint32_t kInvalidToken =
    std::numeric_limits<uint32_t>::max();
inline constexpr Timestamp kNoTimestamp = 0;
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();
inline constexpr TxnId kNoTxn = 0;

/// Which entity family an id refers to (used by lock keys, GC bookkeeping,
/// WAL records).
enum class EntityType : uint8_t {
  kNode = 0,
  kRelationship = 1,
};

/// One of the engine's three versioned indexes (paper §2: nodes have a label
/// index and a property index, relationships a property index).
enum class IndexId : uint8_t {
  kLabel = 0,
  kNodeProperty = 1,
  kRelProperty = 2,
};

/// Direction of relationship traversal relative to an anchor node.
enum class Direction : uint8_t {
  kOutgoing = 0,
  kIncoming = 1,
  kBoth = 2,
};

/// Isolation level for a transaction.
///
/// kReadCommitted reproduces stock Neo4j (short shared read locks + long
/// exclusive write locks, reads always see the latest committed state).
/// kSnapshotIsolation is the paper's contribution (MVCC snapshot reads, no
/// read locks, write-write conflict detection).
/// kSerializable layers SSI (Cahill-style serializable snapshot isolation,
/// as refined by PostgreSQL) on top of the SI machinery: snapshot reads
/// additionally leave SIREAD markers, rw-antidependency edges are tracked,
/// and a transaction at the centre of a dangerous structure aborts with
/// Status::SerializationFailure. Serializability is guaranteed among
/// kSerializable transactions only (the PostgreSQL stance).
enum class IsolationLevel : uint8_t {
  kReadCommitted = 0,
  kSnapshotIsolation = 1,
  kSerializable = 2,
};

/// Write-write conflict resolution policy under snapshot isolation (paper §3).
enum class ConflictPolicy : uint8_t {
  /// Abort the requester immediately if another active transaction holds the
  /// write lock (no-wait first-updater-wins).
  kFirstUpdaterWinsNoWait = 0,
  /// Wait for the holder; abort if the holder commits, proceed if it aborts
  /// (PostgreSQL-style first-updater-wins). Deadlocks broken by wait-die.
  kFirstUpdaterWinsWait = 1,
  /// Locks never conflict eagerly; validation at commit aborts any
  /// transaction whose write set intersects a concurrently committed one.
  kFirstCommitterWins = 2,
};

/// Key identifying a lockable / versionable entity.
struct EntityKey {
  EntityType type = EntityType::kNode;
  uint64_t id = kInvalidId;

  bool operator==(const EntityKey&) const = default;
  bool operator<(const EntityKey& other) const {
    if (type != other.type) return type < other.type;
    return id < other.id;
  }

  static EntityKey Node(NodeId id) { return {EntityType::kNode, id}; }
  static EntityKey Rel(RelId id) { return {EntityType::kRelationship, id}; }

  std::string ToString() const;
};

std::string_view EntityTypeToString(EntityType type);
std::string_view DirectionToString(Direction direction);
std::string_view IsolationLevelToString(IsolationLevel level);
std::string_view ConflictPolicyToString(ConflictPolicy policy);

}  // namespace neosi

namespace std {
template <>
struct hash<neosi::EntityKey> {
  size_t operator()(const neosi::EntityKey& k) const noexcept {
    // Splitmix-style finalizer over (type, id).
    uint64_t x = k.id * 0x9E3779B97F4A7C15ULL +
                 (static_cast<uint64_t>(k.type) << 62);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};
}  // namespace std

#endif  // NEOSI_COMMON_TYPES_H_
