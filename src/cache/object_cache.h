// The Object Cache of Figure 1, extended per §4 to own the version chains.
//
// Entities are loaded from the GraphStore on miss (materializing the newest
// committed version as a one-element chain) and stay resident while they
// carry more than one version — old versions exist ONLY here, never on disk,
// so a multi-version entity is pinned until GC trims its chain back to one.
// Clean single-version entities are evictable once the cache exceeds its
// soft capacity.
//
// Layout: one two-level directory per entity kind, indexed by the dense
// record id (a page pointer array, then pages of entry slots). A hit is one
// acquire load of the entry's slot: no latch, no reference count. Entries
// are BORROWED: a returned pointer stays valid while the caller holds an
// EpochManager::Guard on the cache's manager, because every unpublish
// (eviction, erase, replacement) retires the entry through the epoch limbo
// instead of deleting it. An entry that carries the caller's own pending
// version also stays valid without a guard until that version commits or
// aborts: eviction never unpublishes a chain with a pending version, and
// nothing else unpublishes a live entry.
//
// Every slot write (publish on miss, insert, erase, evict) happens under the
// id's stripe latch; reads take none. ResolveRels is the hit path for a run
// of relationship ids at once, so an adjacency walk overlaps their misses.
//
// A cached node's relationship list (CachedNode::rel_list) is filled by
// RelListOf from GraphStore::RelChainOf while that walk still holds the
// node's shard read latch, and dropped by DropRelList, which the store's
// chain-changed hook runs under the shard write latch of every chain edit.
// A published list is therefore never older than the store chain. Dropped
// lists retire through the epoch limbo, and an unpublished entry takes its
// list along, so a list read under a guard stays valid like the entry.

#ifndef NEOSI_CACHE_OBJECT_CACHE_H_
#define NEOSI_CACHE_OBJECT_CACHE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "cache/cached_entity.h"
#include "storage/graph_store.h"

namespace neosi {

/// Cache observability (tests + E9 memory accounting).
struct ObjectCacheStats {
  uint64_t node_hits = 0;
  uint64_t node_misses = 0;
  uint64_t rel_hits = 0;
  uint64_t rel_misses = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
  uint64_t rel_list_loads = 0;      ///< Node relationship lists filled.
  uint64_t rel_list_drops = 0;      ///< Lists dropped by a chain edit.
  uint64_t resident_nodes = 0;
  uint64_t resident_rels = 0;
  uint64_t resident_versions = 0;   ///< Sum of chain lengths.
  uint64_t approx_bytes = 0;        ///< Heap footprint: chains, lists.
};

/// Id-indexed directories of cached nodes and relationships.
class ObjectCache {
 public:
  /// Every cached entity's version chain reads latch-free under `epochs`
  /// (non-null, the engine's reclamation domain), which also receives every
  /// unpublished entry.
  ObjectCache(GraphStore* store, size_t capacity, EpochManager* epochs);
  ~ObjectCache();

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  /// Returns the cached node, loading the newest committed version from the
  /// store on miss. NotFound if the record is free (never existed/purged).
  /// Borrowed (see the header comment).
  Result<CachedNode*> GetNode(NodeId id);
  Result<CachedRel*> GetRel(RelId id);
  /// The longest run of ids one ResolveRels call takes.
  static constexpr size_t kResolveWindow = 16;
  /// GetRel's hit path for `n` <= kResolveWindow ids as one batch: out[i]
  /// is the published entry for ids[i], or null when it is not resident
  /// (GetRel then loads it). Every directory slot is requested, then every
  /// entry, then every head version's lines, so the batch's cache misses
  /// overlap instead of forming one dependent chain per id. The hits count
  /// once for the batch. Borrowed, like GetRel's entries.
  void ResolveRels(const RelId* ids, size_t n, CachedRel** out);
  /// GetNode / GetRel by key type, returning the entity's version chain.
  Result<VersionChain*> GetChain(const EntityKey& key);

  /// Inserts a fresh (empty-chain) object for a brand-new entity; the store
  /// record is not consulted. Internal error if already cached.
  Result<CachedNode*> InsertNewNode(NodeId id);
  Result<CachedRel*> InsertNewRel(RelId id, NodeId src, NodeId dst,
                                  RelTypeId type);

  /// The ids of `node`'s store relationship chain, filling the list from
  /// the store when the node has none. `node` comes from GetNode, and the
  /// caller's guard covers the result as it covers the entry.
  Result<const RelIdList*> RelListOf(CachedNode* node);
  /// Requests the line of `node`'s relationship list, if it has one, so
  /// the miss overlaps whatever the caller does before RelListOf.
  static void PrefetchRelList(const CachedNode& node);

  /// Drops the published node's relationship list, if any. The store's
  /// chain-changed hook: the caller holds the node's shard write latch.
  /// Engine callers enter an epoch guard before that latch, so the guard
  /// taken here nests: one claimed under the latch could wait for a slot
  /// held by a reader that is itself waiting for the latch.
  void DropRelList(NodeId id);

  /// Lookup without loading (GC paths). Null on miss. Borrowed.
  CachedNode* PeekNode(NodeId id) const;
  CachedRel* PeekRel(RelId id) const;

  /// True while `chain` belongs to the entry the directory publishes for
  /// `key`. A writer calls this after installing its pending version: if
  /// eviction unpublished the entry first, the install landed in an orphan.
  bool Holds(const EntityKey& key, const VersionChain* chain) const;

  /// Unpublishes an entry (entity purge or aborted creation).
  void EraseNode(NodeId id);
  void EraseRel(RelId id);

  /// When resident entries exceed capacity, one pass unpublishes every
  /// clean single-version entry, not just enough to get back under it.
  /// Returns the number evicted.
  size_t EvictIfNeeded();

  /// Called by whichever thread publishes an entry that takes the resident
  /// count past capacity. The engine points it at the GC daemon's armed
  /// nudge, so eviction keeps pace with a fast loader (a full scan) instead
  /// of letting the cache outgrow its capacity for a whole pass interval.
  /// Set once, before the cache is shared between threads.
  void SetOverCapacityHook(std::function<void()> hook) {
    over_capacity_ = std::move(hook);
  }

  ObjectCacheStats Stats() const;
  size_t ResidentCount() const {
    return nodes_.resident.load(std::memory_order_relaxed) +
           rels_.resident.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 64;
  static constexpr unsigned kPageBits = 14;  // 16,384 slots (128 KiB).
  static constexpr size_t kPageSlots = size_t{1} << kPageBits;
  static constexpr size_t kPages = size_t{1} << 16;  // Ids below 2^30.

  static constexpr size_t kHitCells = 64;

  // A stripe's latch serializes slot writes for its ids; its counters are
  // relaxed atomics bumped on the miss path.
  struct alignas(64) Stripe {
    std::mutex latch;
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> loads{0};
    std::atomic<uint64_t> rel_list_loads{0};
    std::atomic<uint64_t> rel_list_drops{0};
  };

  // Hits count in a cell picked by the counting thread, not by the id: a
  // hot entity read from many threads then writes no shared line.
  struct alignas(64) HitCell {
    std::atomic<uint64_t> count{0};
  };

  /// One entity kind's directory.
  template <typename Entry>
  struct Table {
    struct Page {
      std::atomic<Entry*> slots[kPageSlots] = {};
    };

    Table() : pages(new std::atomic<Page*>[kPages]()) {}
    ~Table();

    /// The slot for `id`, or null when its page was never allocated.
    const std::atomic<Entry*>* FindSlot(uint64_t id) const {
      if (id >= kPages * kPageSlots) return nullptr;
      const Page* page = pages[id >> kPageBits].load(std::memory_order_acquire);
      if (page == nullptr) return nullptr;
      return &page->slots[id & (kPageSlots - 1)];
    }
    /// The published entry for `id`, or null.
    Entry* Find(uint64_t id) const {
      const std::atomic<Entry*>* slot = FindSlot(id);
      return slot == nullptr ? nullptr
                             : slot->load(std::memory_order_acquire);
    }
    /// The slot for `id`, allocating its page; null past the directory.
    std::atomic<Entry*>* Slot(uint64_t id);
    Stripe& StripeOf(uint64_t id) const { return stripes[id % kStripes]; }

    const std::unique_ptr<std::atomic<Page*>[]> pages;
    /// One past the highest allocated page index (eviction scans below it).
    std::atomic<size_t> page_limit{0};
    mutable std::array<Stripe, kStripes> stripes;
    std::array<HitCell, kHitCells> hits;
    std::atomic<size_t> resident{0};
  };

  /// Adds `n` hits to the calling thread's cell.
  template <typename Entry>
  static void CountHits(Table<Entry>& table, uint64_t n);
  /// The lookup behind GetNode / GetRel: a hit, or `load(id)` under the
  /// stripe latch, published on success.
  template <typename Entry, typename Load>
  Result<Entry*> Get(Table<Entry>& table, uint64_t id, Load load);
  template <typename Entry>
  Result<Entry*> Insert(Table<Entry>& table, uint64_t id,
                        std::unique_ptr<Entry> entry);
  /// Counts a newly published entry; runs the hook past capacity.
  template <typename Entry>
  void CountPublished(Table<Entry>& table);
  template <typename Entry>
  void Erase(Table<Entry>& table, uint64_t id);
  template <typename Entry>
  size_t Evict(Table<Entry>& table);
  template <typename Entry>
  void Tally(const Table<Entry>& table, uint64_t* resident,
             ObjectCacheStats* out) const;

  GraphStore* const store_;
  const size_t capacity_;
  EpochManager* const epochs_;

  Table<CachedNode> nodes_;
  Table<CachedRel> rels_;
  std::function<void()> over_capacity_;

  std::atomic<uint64_t> evictions_{0};
};

}  // namespace neosi

#endif  // NEOSI_CACHE_OBJECT_CACHE_H_
