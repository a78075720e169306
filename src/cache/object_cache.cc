#include "cache/object_cache.h"

#include <string>
#include <vector>

#include "mvcc/epoch.h"

namespace neosi {

namespace {

/// True when a cache entry left behind for a purged-and-recycled id can be
/// replaced: its chain is empty or its latest committed version is a
/// tombstone with no writer in flight. (A reader racing the purge may have
/// reloaded the tombstone record into the cache between the cache erase and
/// the record free; such entries are invisible to every snapshot.)
bool IsDefunct(const VersionChain& chain) {
  if (chain.HasUncommitted()) return false;
  auto latest = chain.LatestCommitted();
  return latest == nullptr || latest->data.deleted;
}

/// Installs `data` as `chain`'s one committed version, stamped with the
/// persisted commit timestamp.
Status Materialize(VersionChain* chain, VersionData data, Timestamp ts) {
  NEOSI_RETURN_IF_ERROR(
      chain->InstallUncommitted(kNoTxn, std::move(data)).status());
  return chain->CommitHead(kNoTxn, ts).status();
}

}  // namespace

template <typename Entry>
ObjectCache::Table<Entry>::~Table() {
  // No reader is left (the engine outlives its transactions); retired
  // entries belong to the epoch limbo, published ones to us.
  const size_t limit = page_limit.load(std::memory_order_relaxed);
  for (size_t p = 0; p < limit; ++p) {
    Page* page = pages[p].load(std::memory_order_relaxed);
    if (page == nullptr) continue;
    for (auto& slot : page->slots) delete slot.load(std::memory_order_relaxed);
    delete page;
  }
}

template <typename Entry>
std::atomic<Entry*>* ObjectCache::Table<Entry>::Slot(uint64_t id) {
  if (id >= kPages * kPageSlots) return nullptr;
  const size_t index = id >> kPageBits;
  Page* page = pages[index].load(std::memory_order_acquire);
  if (page == nullptr) {
    // Pages are shared across stripes, so a new one is installed by CAS.
    auto fresh = std::make_unique<Page>();
    if (pages[index].compare_exchange_strong(page, fresh.get(),
                                             std::memory_order_acq_rel)) {
      page = fresh.release();
      size_t limit = page_limit.load(std::memory_order_relaxed);
      while (limit <= index &&
             !page_limit.compare_exchange_weak(limit, index + 1,
                                               std::memory_order_relaxed)) {
      }
    }
  }
  return &page->slots[id & (kPageSlots - 1)];
}

ObjectCache::ObjectCache(GraphStore* store, size_t capacity,
                         EpochManager* epochs)
    : store_(store),
      capacity_(capacity == 0 ? SIZE_MAX : capacity),
      epochs_(epochs) {}

ObjectCache::~ObjectCache() = default;

template <typename Entry, typename Load>
Result<Entry*> ObjectCache::Get(Table<Entry>& table, uint64_t id, Load load) {
  Stripe& stripe = table.StripeOf(id);
  if (Entry* hit = table.Find(id)) {
    stripe.hits.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  // Miss: load the newest committed version from the store.
  std::lock_guard<std::mutex> guard(stripe.latch);
  if (Entry* hit = table.Find(id)) {  // Raced another loader: our hit.
    stripe.hits.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }
  Result<std::unique_ptr<Entry>> loaded = load(id);
  if (!loaded.ok()) {
    if (loaded.status().IsNotFound()) {
      stripe.misses.fetch_add(1, std::memory_order_relaxed);
    }
    return loaded.status();
  }
  std::atomic<Entry*>* slot = table.Slot(id);
  if (slot == nullptr) {
    return Status::Internal("id " + std::to_string(id) +
                            " is beyond the object cache directory");
  }
  Entry* entry = loaded->release();
  slot->store(entry, std::memory_order_release);
  CountPublished(table);
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  stripe.loads.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

Result<CachedNode*> ObjectCache::GetNode(NodeId id) {
  using Loaded = Result<std::unique_ptr<CachedNode>>;
  return Get(nodes_, id, [this](NodeId node_id) -> Loaded {
    NodeState state;
    Status s = store_->ReadNodeState(node_id, &state);
    if (s.IsOutOfRange() || (s.ok() && !state.in_use)) {
      return Status::NotFound("node " + std::to_string(node_id) +
                              " does not exist");
    }
    NEOSI_RETURN_IF_ERROR(s);
    auto node = std::make_unique<CachedNode>(node_id, epochs_);
    VersionData data;
    data.deleted = state.deleted;
    data.labels = std::move(state.labels);
    data.props = std::move(state.props);
    NEOSI_RETURN_IF_ERROR(
        Materialize(&node->chain, std::move(data), state.commit_ts));
    return node;
  });
}

Result<CachedRel*> ObjectCache::GetRel(RelId id) {
  using Loaded = Result<std::unique_ptr<CachedRel>>;
  return Get(rels_, id, [this](RelId rel_id) -> Loaded {
    RelState state;
    Status s = store_->ReadRelState(rel_id, &state);
    if (s.IsOutOfRange() || (s.ok() && !state.in_use)) {
      return Status::NotFound("relationship " + std::to_string(rel_id) +
                              " does not exist");
    }
    NEOSI_RETURN_IF_ERROR(s);
    auto rel = std::make_unique<CachedRel>(rel_id, state.src, state.dst,
                                           state.type, epochs_);
    VersionData data;
    data.deleted = state.deleted;
    data.props = std::move(state.props);
    NEOSI_RETURN_IF_ERROR(
        Materialize(&rel->chain, std::move(data), state.commit_ts));
    return rel;
  });
}

Result<VersionChain*> ObjectCache::GetChain(const EntityKey& key) {
  if (key.type == EntityType::kNode) {
    NEOSI_ASSIGN_OR_RETURN(CachedNode* node, GetNode(key.id));
    return &node->chain;
  }
  NEOSI_ASSIGN_OR_RETURN(CachedRel* rel, GetRel(key.id));
  return &rel->chain;
}

template <typename Entry>
Result<Entry*> ObjectCache::Insert(Table<Entry>& table, uint64_t id,
                                   std::unique_ptr<Entry> entry) {
  std::lock_guard<std::mutex> guard(table.StripeOf(id).latch);
  std::atomic<Entry*>* slot = table.Slot(id);
  if (slot == nullptr) {
    return Status::Internal("id " + std::to_string(id) +
                            " is beyond the object cache directory");
  }
  Entry* old = slot->load(std::memory_order_relaxed);
  // A stale entry for the previous (purged) occupant of this record id is
  // replaced; a live one means the id was handed out twice.
  if (old != nullptr && !IsDefunct(old->chain)) {
    return Status::Internal("object cache: live entity already cached: " +
                            std::to_string(id));
  }
  Entry* fresh = entry.release();
  slot->store(fresh, std::memory_order_release);
  if (old != nullptr) {
    epochs_->Retire(std::unique_ptr<Entry>(old));
  } else {
    CountPublished(table);
  }
  return fresh;
}

Result<CachedNode*> ObjectCache::InsertNewNode(NodeId id) {
  return Insert(nodes_, id, std::make_unique<CachedNode>(id, epochs_));
}

Result<CachedRel*> ObjectCache::InsertNewRel(RelId id, NodeId src,
                                             NodeId dst, RelTypeId type) {
  return Insert(rels_, id,
                std::make_unique<CachedRel>(id, src, dst, type, epochs_));
}

CachedNode* ObjectCache::PeekNode(NodeId id) const { return nodes_.Find(id); }

CachedRel* ObjectCache::PeekRel(RelId id) const { return rels_.Find(id); }

bool ObjectCache::Holds(const EntityKey& key,
                        const VersionChain* chain) const {
  if (key.type == EntityType::kNode) {
    const CachedNode* node = nodes_.Find(key.id);
    return node != nullptr && &node->chain == chain;
  }
  const CachedRel* rel = rels_.Find(key.id);
  return rel != nullptr && &rel->chain == chain;
}

template <typename Entry>
void ObjectCache::CountPublished(Table<Entry>& table) {
  table.resident.fetch_add(1, std::memory_order_relaxed);
  if (over_capacity_ && ResidentCount() > capacity_) over_capacity_();
}

template <typename Entry>
void ObjectCache::Erase(Table<Entry>& table, uint64_t id) {
  std::lock_guard<std::mutex> guard(table.StripeOf(id).latch);
  if (table.Find(id) == nullptr) return;
  Entry* old = table.Slot(id)->exchange(nullptr, std::memory_order_acq_rel);
  table.resident.fetch_sub(1, std::memory_order_relaxed);
  epochs_->Retire(std::unique_ptr<Entry>(old));
}

void ObjectCache::EraseNode(NodeId id) { Erase(nodes_, id); }

void ObjectCache::EraseRel(RelId id) { Erase(rels_, id); }

template <typename Entry>
size_t ObjectCache::Evict(Table<Entry>& table) {
  // The pass's evictions retire together, as one limbo entry.
  auto evicted = std::make_unique<std::vector<std::unique_ptr<Entry>>>();
  const size_t limit = table.page_limit.load(std::memory_order_acquire);
  for (size_t p = 0; p < limit; ++p) {
    auto* page = table.pages[p].load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (size_t i = 0; i < kPageSlots; ++i) {
      std::atomic<Entry*>& slot = page->slots[i];
      if (slot.load(std::memory_order_relaxed) == nullptr) continue;
      const uint64_t id = (uint64_t{p} << kPageBits) | i;
      std::lock_guard<std::mutex> guard(table.StripeOf(id).latch);
      Entry* entry = slot.load(std::memory_order_relaxed);
      if (entry == nullptr) continue;
      // Single committed version: the store already holds exactly this
      // state. Multi-version or uncommitted entities are pinned (old
      // versions exist only in memory; uncommitted state belongs to a live
      // transaction). The unpublish runs under the chain latch, so a
      // writer's install either pins the entry first or sees it orphaned.
      const bool unpublished = entry->chain.IfSoleCommitted(
          [&] { slot.store(nullptr, std::memory_order_release); });
      if (!unpublished) continue;
      table.resident.fetch_sub(1, std::memory_order_relaxed);
      evicted->emplace_back(entry);
    }
  }
  const size_t count = evicted->size();
  if (count > 0) epochs_->Retire(std::move(evicted), count);
  return count;
}

size_t ObjectCache::EvictIfNeeded() {
  if (ResidentCount() <= capacity_) return 0;
  const size_t evicted = Evict(nodes_) + Evict(rels_);
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

template <typename Entry>
void ObjectCache::Tally(const Table<Entry>& table, uint64_t* resident,
                        ObjectCacheStats* out) const {
  // Footprint walks go through the chain (its own latch): a raw head/older
  // walk here would race GC unlinks. The guard keeps evicted entries alive.
  EpochManager::Guard guard(epochs_);
  const size_t limit = table.page_limit.load(std::memory_order_acquire);
  for (size_t p = 0; p < limit; ++p) {
    const auto* page = table.pages[p].load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (const auto& slot : page->slots) {
      const Entry* entry = slot.load(std::memory_order_acquire);
      if (entry == nullptr) continue;
      ++*resident;
      out->resident_versions += entry->chain.Length();
      out->approx_bytes += entry->chain.ApproximateBytes();
    }
  }
}

ObjectCacheStats ObjectCache::Stats() const {
  ObjectCacheStats out;
  for (const Stripe& stripe : nodes_.stripes) {
    out.node_hits += stripe.hits.load(std::memory_order_relaxed);
    out.node_misses += stripe.misses.load(std::memory_order_relaxed);
    out.loads += stripe.loads.load(std::memory_order_relaxed);
  }
  for (const Stripe& stripe : rels_.stripes) {
    out.rel_hits += stripe.hits.load(std::memory_order_relaxed);
    out.rel_misses += stripe.misses.load(std::memory_order_relaxed);
    out.loads += stripe.loads.load(std::memory_order_relaxed);
  }
  out.evictions = evictions_.load(std::memory_order_relaxed);
  Tally(nodes_, &out.resident_nodes, &out);
  Tally(rels_, &out.resident_rels, &out);
  return out;
}

}  // namespace neosi
