#include "cache/object_cache.h"

#include <array>

namespace neosi {

ObjectCache::ObjectCache(GraphStore* store, size_t capacity,
                         EpochManager* epochs)
    : store_(store),
      capacity_(capacity == 0 ? SIZE_MAX : capacity),
      epochs_(epochs) {}

Result<std::shared_ptr<CachedNode>> ObjectCache::GetNode(NodeId id) {
  NodeShard& shard = NodeShardFor(id);
  {
    ReadGuard guard(shard.latch);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Miss: load the newest committed version from the store.
  WriteGuard guard(shard.latch);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {  // Raced another loader: its load is our hit.
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  NodeState state;
  Status s = store_->ReadNodeState(id, &state);
  if (s.IsOutOfRange() || (s.ok() && !state.in_use)) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("node " + std::to_string(id) + " does not exist");
  }
  NEOSI_RETURN_IF_ERROR(s);

  auto node = std::make_shared<CachedNode>(id, epochs_);
  VersionData data;
  data.deleted = state.deleted;
  data.labels = std::move(state.labels);
  data.props = std::move(state.props);
  auto installed = node->chain.InstallUncommitted(kNoTxn, std::move(data));
  if (!installed.ok()) return installed.status();
  // Stamp directly with the persisted commit timestamp.
  auto superseded = node->chain.CommitHead(kNoTxn, state.commit_ts);
  if (!superseded.ok()) return superseded.status();

  shard.map[id] = node;
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  shard.loads.fetch_add(1, std::memory_order_relaxed);
  return node;
}

Result<std::shared_ptr<CachedRel>> ObjectCache::GetRel(RelId id) {
  RelShard& shard = RelShardFor(id);
  {
    ReadGuard guard(shard.latch);
    auto it = shard.map.find(id);
    if (it != shard.map.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  WriteGuard guard(shard.latch);
  auto it = shard.map.find(id);
  if (it != shard.map.end()) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  RelState state;
  Status s = store_->ReadRelState(id, &state);
  if (s.IsOutOfRange() || (s.ok() && !state.in_use)) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("relationship " + std::to_string(id) +
                            " does not exist");
  }
  NEOSI_RETURN_IF_ERROR(s);

  auto rel = std::make_shared<CachedRel>(id, state.src, state.dst, state.type,
                                         epochs_);
  VersionData data;
  data.deleted = state.deleted;
  data.props = std::move(state.props);
  auto installed = rel->chain.InstallUncommitted(kNoTxn, std::move(data));
  if (!installed.ok()) return installed.status();
  auto superseded = rel->chain.CommitHead(kNoTxn, state.commit_ts);
  if (!superseded.ok()) return superseded.status();

  shard.map[id] = rel;
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  shard.loads.fetch_add(1, std::memory_order_relaxed);
  return rel;
}

Result<std::shared_ptr<VersionChain>> ObjectCache::GetChain(
    const EntityKey& key) {
  // Aliasing moves: the chain takes over the object's reference instead of
  // adding one (hot objects' reference counts are shared by every reader).
  if (key.type == EntityType::kNode) {
    NEOSI_ASSIGN_OR_RETURN(auto node, GetNode(key.id));
    VersionChain* chain = &node->chain;
    return std::shared_ptr<VersionChain>(std::move(node), chain);
  }
  NEOSI_ASSIGN_OR_RETURN(auto rel, GetRel(key.id));
  VersionChain* chain = &rel->chain;
  return std::shared_ptr<VersionChain>(std::move(rel), chain);
}

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

}  // namespace

Result<std::shared_ptr<CachedNode>> ObjectCache::InsertNewNode(NodeId id) {
  NodeShard& shard = NodeShardFor(id);
  WriteGuard guard(shard.latch);
  auto [it, inserted] = shard.map.emplace(id, nullptr);
  if (!inserted) {
    if (!IsDefunct(it->second->chain)) {
      return Status::Internal("InsertNewNode: live node already cached: " +
                              std::to_string(id));
    }
    // Stale entry for the previous (purged) occupant of this record id.
  }
  it->second = std::make_shared<CachedNode>(id, epochs_);
  return it->second;
}

Result<std::shared_ptr<CachedRel>> ObjectCache::InsertNewRel(RelId id,
                                                             NodeId src,
                                                             NodeId dst,
                                                             RelTypeId type) {
  RelShard& shard = RelShardFor(id);
  WriteGuard guard(shard.latch);
  auto [it, inserted] = shard.map.emplace(id, nullptr);
  if (!inserted) {
    if (!IsDefunct(it->second->chain)) {
      return Status::Internal(
          "InsertNewRel: live relationship already cached: " +
          std::to_string(id));
    }
  }
  it->second = std::make_shared<CachedRel>(id, src, dst, type, epochs_);
  return it->second;
}

std::shared_ptr<CachedNode> ObjectCache::PeekNode(NodeId id) const {
  NodeShard& shard = NodeShardFor(id);
  ReadGuard guard(shard.latch);
  auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : it->second;
}

std::shared_ptr<CachedRel> ObjectCache::PeekRel(RelId id) const {
  RelShard& shard = RelShardFor(id);
  ReadGuard guard(shard.latch);
  auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : it->second;
}

void ObjectCache::EraseNode(NodeId id) {
  NodeShard& shard = NodeShardFor(id);
  WriteGuard guard(shard.latch);
  shard.map.erase(id);
}

void ObjectCache::EraseRel(RelId id) {
  RelShard& shard = RelShardFor(id);
  WriteGuard guard(shard.latch);
  shard.map.erase(id);
}

size_t ObjectCache::EvictIfNeeded() {
  if (ResidentCount() <= capacity_) return 0;
  size_t evicted = 0;
  auto evictable_chain = [](const VersionChain& chain) {
    // Single committed version: the store already holds exactly this state.
    // Multi-version or uncommitted entities are pinned (old versions exist
    // only in memory; uncommitted state belongs to a live transaction).
    if (chain.Length() != 1) return false;
    return !chain.HasUncommitted();
  };
  for (auto& shard : node_shards_) {
    WriteGuard guard(shard.latch);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (evictable_chain(it->second->chain)) {
        it = shard.map.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  for (auto& shard : rel_shards_) {
    WriteGuard guard(shard.latch);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if (evictable_chain(it->second->chain)) {
        it = shard.map.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

void ObjectCache::ForEachNode(
    const std::function<void(const std::shared_ptr<CachedNode>&)>& fn) const {
  for (const auto& shard : node_shards_) {
    std::vector<std::shared_ptr<CachedNode>> snapshot;
    {
      ReadGuard guard(shard.latch);
      snapshot.reserve(shard.map.size());
      for (const auto& [id, node] : shard.map) snapshot.push_back(node);
    }
    for (const auto& node : snapshot) fn(node);
  }
}

void ObjectCache::ForEachRel(
    const std::function<void(const std::shared_ptr<CachedRel>&)>& fn) const {
  for (const auto& shard : rel_shards_) {
    std::vector<std::shared_ptr<CachedRel>> snapshot;
    {
      ReadGuard guard(shard.latch);
      snapshot.reserve(shard.map.size());
      for (const auto& [id, rel] : shard.map) snapshot.push_back(rel);
    }
    for (const auto& rel : snapshot) fn(rel);
  }
}

size_t ObjectCache::ResidentCount() const {
  size_t n = 0;
  for (const auto& shard : node_shards_) {
    ReadGuard guard(shard.latch);
    n += shard.map.size();
  }
  for (const auto& shard : rel_shards_) {
    ReadGuard guard(shard.latch);
    n += shard.map.size();
  }
  return n;
}

ObjectCacheStats ObjectCache::Stats() const {
  ObjectCacheStats out;
  for (const auto& shard : node_shards_) {
    out.node_hits += shard.hits.load(std::memory_order_relaxed);
    out.node_misses += shard.misses.load(std::memory_order_relaxed);
    out.loads += shard.loads.load(std::memory_order_relaxed);
  }
  for (const auto& shard : rel_shards_) {
    out.rel_hits += shard.hits.load(std::memory_order_relaxed);
    out.rel_misses += shard.misses.load(std::memory_order_relaxed);
    out.loads += shard.loads.load(std::memory_order_relaxed);
  }
  out.evictions = evictions_.load(std::memory_order_relaxed);
  // Footprint walks go through the chain (its own latch): a raw
  // head/older walk here would race GC unlinks.
  ForEachNode([&](const std::shared_ptr<CachedNode>& node) {
    ++out.resident_nodes;
    out.resident_versions += node->chain.Length();
    out.approx_bytes += node->chain.ApproximateBytes();
  });
  ForEachRel([&](const std::shared_ptr<CachedRel>& rel) {
    ++out.resident_rels;
    out.resident_versions += rel->chain.Length();
    out.approx_bytes += rel->chain.ApproximateBytes();
  });
  return out;
}

}  // namespace neosi
