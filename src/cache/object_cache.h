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
// id's stripe latch; reads take none.

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
  uint64_t resident_nodes = 0;
  uint64_t resident_rels = 0;
  uint64_t resident_versions = 0;   ///< Sum of chain lengths.
  uint64_t approx_bytes = 0;        ///< Approximate heap footprint.
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
  /// GetNode / GetRel by key type, returning the entity's version chain.
  Result<VersionChain*> GetChain(const EntityKey& key);

  /// Inserts a fresh (empty-chain) object for a brand-new entity; the store
  /// record is not consulted. Internal error if already cached.
  Result<CachedNode*> InsertNewNode(NodeId id);
  Result<CachedRel*> InsertNewRel(RelId id, NodeId src, NodeId dst,
                                  RelTypeId type);

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

  /// Evicts clean single-version entries while above capacity. Returns the
  /// number evicted.
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

  // A stripe's latch serializes slot writes for its ids; its counters are
  // relaxed atomics on their own line, so a hit writes only that line.
  struct alignas(64) Stripe {
    std::mutex latch;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> loads{0};
  };

  /// One entity kind's directory.
  template <typename Entry>
  struct Table {
    struct Page {
      std::atomic<Entry*> slots[kPageSlots] = {};
    };

    Table() : pages(new std::atomic<Page*>[kPages]()) {}
    ~Table();

    /// The published entry for `id`, or null.
    Entry* Find(uint64_t id) const {
      if (id >= kPages * kPageSlots) return nullptr;
      const Page* page = pages[id >> kPageBits].load(std::memory_order_acquire);
      if (page == nullptr) return nullptr;
      return page->slots[id & (kPageSlots - 1)].load(std::memory_order_acquire);
    }
    /// The slot for `id`, allocating its page; null past the directory.
    std::atomic<Entry*>* Slot(uint64_t id);
    Stripe& StripeOf(uint64_t id) const { return stripes[id % kStripes]; }

    const std::unique_ptr<std::atomic<Page*>[]> pages;
    /// One past the highest allocated page index (eviction scans below it).
    std::atomic<size_t> page_limit{0};
    mutable std::array<Stripe, kStripes> stripes;
    std::atomic<size_t> resident{0};
  };

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
