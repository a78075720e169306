// Cached node / relationship objects.
//
// Paper §4: "Versions are kept in the Object Cache of Neo4j. In particular,
// each object representing a node or relationship stores a list of
// versions." These are those objects. Relationship topology (src/dst/type)
// is immutable for the life of the relationship and lives directly on the
// cached object; the mutable state (labels, properties, existence) lives in
// the version chain.
//
// A cached node also carries the ids of its store relationship chain, as
// Neo4j's object cache did, so an adjacency read that finds them walks no
// store records. ObjectCache fills and drops that list; the store chain
// stays the only source of truth.

#ifndef NEOSI_CACHE_CACHED_ENTITY_H_
#define NEOSI_CACHE_CACHED_ENTITY_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <new>
#include <vector>

#include "common/types.h"
#include "mvcc/version_chain.h"

namespace neosi {

/// The relationship ids of a node's store chain (tombstones included), in
/// one exact-size allocation. Immutable.
class RelIdList {
 public:
  static std::unique_ptr<RelIdList> Copy(const std::vector<RelId>& ids) {
    void* block =
        ::operator new(sizeof(RelIdList) + ids.size() * sizeof(RelId));
    auto* list = new (block) RelIdList(ids.size());
    std::copy(ids.begin(), ids.end(), list->ids());
    return std::unique_ptr<RelIdList>(list);
  }
  static void operator delete(void* block) { ::operator delete(block); }

  RelIdList(const RelIdList&) = delete;
  RelIdList& operator=(const RelIdList&) = delete;

  size_t size() const { return size_; }
  const RelId* begin() const {
    return reinterpret_cast<const RelId*>(this + 1);
  }
  const RelId* end() const { return begin() + size_; }
  /// Heap footprint.
  size_t bytes() const { return sizeof(RelIdList) + size_ * sizeof(RelId); }

 private:
  explicit RelIdList(size_t size) : size_(size) {}
  RelId* ids() { return reinterpret_cast<RelId*>(this + 1); }

  const size_t size_;
};

/// A node resident in the object cache. `epochs` guards the chain's
/// latch-free reads (see VersionChain); the ObjectCache passes the engine's
/// manager through.
struct CachedNode {
  CachedNode(NodeId id, EpochManager* epochs) : id(id), chain(epochs) {}
  ~CachedNode() { delete rel_list.load(std::memory_order_relaxed); }

  CachedNode(const CachedNode&) = delete;
  CachedNode& operator=(const CachedNode&) = delete;

  const NodeId id;
  VersionChain chain;
  /// The store chain's relationship ids, or null until the next fill. A
  /// dropped list retires through the epoch limbo; the entry owns the one
  /// it still holds when it is freed.
  std::atomic<RelIdList*> rel_list{nullptr};
};

/// A relationship resident in the object cache.
struct CachedRel {
  CachedRel(RelId id, NodeId src, NodeId dst, RelTypeId type,
            EpochManager* epochs)
      : id(id), src(src), dst(dst), type(type), chain(epochs) {}

  const RelId id;
  const NodeId src;
  const NodeId dst;
  const RelTypeId type;
  VersionChain chain;
};

}  // namespace neosi

#endif  // NEOSI_CACHE_CACHED_ENTITY_H_
