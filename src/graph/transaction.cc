#include "graph/transaction.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "graph/checkpoint_daemon.h"
#include "graph/gc_daemon.h"
#include "graph/graph_database.h"

namespace neosi {

Transaction::Transaction(Engine* engine, IsolationLevel isolation, TxnId id,
                         Timestamp start_ts,
                         std::shared_ptr<const std::atomic<bool>> expired,
                         std::shared_ptr<SsiTxnInfo> ssi, bool read_only)
    : engine_(engine),
      isolation_(isolation),
      id_(id),
      start_ts_(start_ts),
      expired_(std::move(expired)),
      ssi_(std::move(ssi)),
      read_only_(read_only) {}

Transaction::~Transaction() {
  if (state_ == TxnState::kActive) {
    Abort();
  }
}

Status Transaction::CheckActive() const {
  if (state_ == TxnState::kActive) {
    // Serializable isolation needs SSI tracking across the whole commit
    // graph, and a replica only ever sees the primary's committed history —
    // it cannot validate rw-antidependencies. Fail with the retryable
    // routing status instead of silently weakening the guarantee.
    if (isolation_ == IsolationLevel::kSerializable &&
        engine_->options.IsReplica()) {
      return Status::ReplicaReadOnly(
          "serializable transactions are not available on a read replica; "
          "use snapshot isolation here or route to the primary");
    }
    return Status::OK();
  }
  return Status::FailedPrecondition(
      state_ == TxnState::kCommitted ? "transaction already committed"
                                     : "transaction already aborted");
}

Status Transaction::FailIfSnapshotExpired() {
  if (!UsesSnapshotReads()) return Status::OK();
  if (!expired_ || !expired_->load(std::memory_order_acquire)) {
    return Status::OK();
  }
  engine_->active_txns.NoteSnapshotTooOldAbort();
  RollbackLocked();
  return Status::SnapshotTooOld(
      "snapshot expired by the lifecycle policy (snapshot_max_age_ms or GC "
      "backlog pressure); restart the transaction for a fresh snapshot");
}

// ---------------------------------------------------------------------------
// SSI hooks (no-ops unless this is a tracked kSerializable transaction)
// ---------------------------------------------------------------------------

Status Transaction::FailIfReadOnly() const {
  if (engine_->options.IsReplica()) {
    return Status::ReplicaReadOnly(
        "this database is a read replica (DatabaseOptions::replica_of); "
        "route writes to the primary");
  }
  if (!read_only_) return Status::OK();
  return Status::FailedPrecondition(
      "transaction was opened read-only (TransactionOptions::read_only)");
}

Status Transaction::FailIfDoomed() {
  if (!ssi_) return Status::OK();
  Status s = engine_->ssi.FailIfDoomed(ssi_);
  if (!s.ok()) RollbackLocked();
  return s;
}

Status Transaction::SsiOnWrite(SsiWriteFootprint fp) {
  if (!ssi_) return Status::OK();
  Status s = engine_->ssi.OnWrite(ssi_, fp);
  if (!s.ok()) {
    RollbackLocked();
    return s;
  }
  ssi_footprints_.push_back(std::move(fp));
  return Status::OK();
}

Status Transaction::SsiObserveNewer(
    const std::vector<std::pair<TxnId, Timestamp>>& newer) {
  if (!ssi_) return Status::OK();
  for (const auto& [writer, ts] : newer) {
    Status s = engine_->ssi.OnReadObservedCommit(ssi_, writer, ts);
    if (!s.ok()) {
      RollbackLocked();
      return s;
    }
  }
  return Status::OK();
}

Status Transaction::SsiObserveAnonymous(const std::vector<Timestamp>& commits) {
  if (!ssi_) return Status::OK();
  for (Timestamp ts : commits) {
    Status s = engine_->ssi.OnReadObservedCommit(ssi_, kNoTxn, ts);
    if (!s.ok()) {
      RollbackLocked();
      return s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Locking & conflict detection
// ---------------------------------------------------------------------------

Status Transaction::AcquireWriteLock(const EntityKey& key) {
  bool wait = true;
  if (UsesSnapshotReads() &&
      engine_->options.conflict_policy ==
          ConflictPolicy::kFirstUpdaterWinsNoWait) {
    wait = false;
  }
  Status s = engine_->lock_manager.AcquireExclusive(id_, key, wait,
                                                    &locked_shards_);
  if (!s.ok()) {
    RollbackLocked();
  }
  return s;
}

Status Transaction::CheckWriteConflict(const VersionChain& chain) {
  if (!UsesSnapshotReads()) return Status::OK();
  if (engine_->options.conflict_policy == ConflictPolicy::kFirstCommitterWins) {
    return Status::OK();  // Validated at commit instead.
  }
  // First-updater-wins (paper §4): the long write lock is held, so the only
  // way the entity can be newer than our snapshot is a conflicting
  // transaction that already committed -> we lose.
  if (chain.NewestCommitTs() > start_ts_) {
    RollbackLocked();
    return Status::Aborted(
        "write-write conflict: concurrent transaction committed a newer "
        "version (first-updater-wins)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

Result<uint32_t> Transaction::Token(TokenKind kind, const std::string& name,
                                    bool create) {
  TokenStore& tokens = kind == TokenKind::kLabel ? engine_->store.labels()
                       : kind == TokenKind::kPropertyKey
                           ? engine_->store.prop_keys()
                           : engine_->store.rel_types();
  if (!create) return tokens.Lookup(name, SnapshotTs());
  // Checked before the token is created, not only by the write itself: a
  // replica's tokens must come from the primary's log alone.
  NEOSI_RETURN_IF_ERROR(FailIfReadOnly());
  auto existing = tokens.Lookup(name);
  if (existing.ok()) return existing;
  // The creation is logged in a record of its own before the id is
  // published: it reaches the log even if this transaction aborts, and
  // ahead of any commit that names the id. The record stays pinned until
  // the token's page is written, so a checkpoint cannot truncate it first.
  std::optional<Lsn> pinned;
  auto created = tokens.GetOrCreate(name, start_ts_, [&](uint32_t id) {
    WalRecord record;
    record.txn_id = id_;
    record.commit_ts = engine_->oracle.ReadTs();
    record.publish_ts = record.commit_ts;
    record.ops.push_back(WalOp::CreateToken(kind, id, name));
    auto lsn = engine_->store.wal().group().Commit(
        record, engine_->options.sync_commits, /*pin=*/true);
    if (lsn.ok()) pinned = *lsn;
    return lsn.status();
  });
  // A failed page write keeps the pin: the record is the token's only copy.
  if (created.ok() && pinned.has_value()) {
    engine_->store.wal().Unpin(*pinned);
  }
  return created;
}

Result<NamedProperties> Transaction::NameProps(const PropertyMap& props) const {
  NamedProperties out;
  for (const auto& [key, value] : props) {
    auto name = engine_->store.prop_keys().NameOf(key);
    if (!name.ok()) return name.status();
    out[*name] = value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pending-version plumbing
// ---------------------------------------------------------------------------

Result<Transaction::WriteRecord*> Transaction::PendingVersion(
    const EntityKey& key) {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfReadOnly());
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());
  auto it = writes_.find(key);
  if (it != writes_.end()) {
    if (it->second.pending->data.deleted) {
      return Status::NotFound(key.ToString() + " was deleted by this "
                              "transaction");
    }
    return &it->second;
  }

  // Lock first, so no epoch guard is held across a lock wait.
  NEOSI_RETURN_IF_ERROR(AcquireWriteLock(key));
  WriteRecord* w = nullptr;
  {
    EpochManager::Guard guard(&engine_->epochs);
    for (;;) {
      WriteRecord record;
      if (key.type == EntityType::kNode) {
        NEOSI_ASSIGN_OR_RETURN(record.node, engine_->cache->GetNode(key.id));
      } else {
        NEOSI_ASSIGN_OR_RETURN(record.rel, engine_->cache->GetRel(key.id));
      }
      NEOSI_RETURN_IF_ERROR(CheckWriteConflict(record.chain()));
      auto visible = record.chain().Visible(SnapshotTs(), id_);
      if (!visible || visible->data.deleted) {
        return Status::NotFound(key.ToString() +
                                " is not visible to this transaction");
      }
      // The pending version starts as a copy of the visible one.
      NEOSI_ASSIGN_OR_RETURN(
          record.pending,
          record.chain().InstallUncommitted(id_, visible->data));
      // Install, then confirm: if eviction unpublished the entry before the
      // install, the version went into an orphan that a reload has already
      // replaced — withdraw it and retry on the published entry.
      if (engine_->cache->Holds(key, &record.chain())) {
        w = &(writes_[key] = std::move(record));
        break;
      }
      record.chain().AbortHead(id_);
    }
  }
  // Post-walk expiry check: the pending version was based on the snapshot-
  // visible version, which expiry-driven reclamation may have pruned
  // mid-walk. Rolls the whole transaction back (including the record just
  // installed) if so.
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  return w;
}

Status Transaction::Update(const EntityKey& key,
                           const std::function<void(VersionData&)>& mutate) {
  NEOSI_ASSIGN_OR_RETURN(WriteRecord* w, PendingVersion(key));
  VersionData post = w->pending->data;
  mutate(post);
  std::vector<IndexChange> changes =
      DiffIndexEntries(key, &w->pending->data, &post);
  // A write that changes nothing leaves no index or SSI footprint: it must
  // not be able to fail a serializable transaction or doom concurrent
  // readers.
  if (changes.empty()) return Status::OK();
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Entity(key)));
  NEOSI_RETURN_IF_ERROR(StageIndexChanges(std::move(changes)));
  w->pending->data = std::move(post);
  return Status::OK();
}

Status Transaction::StageIndexChanges(std::vector<IndexChange> changes) {
  for (IndexChange& change : changes) {
    NEOSI_RETURN_IF_ERROR(SsiOnWrite(change.Footprint()));
    StageIndexChange(engine_, &change, id_);
    index_ops_.push_back(std::move(change));
  }
  return Status::OK();
}

Status Transaction::LockEndpoints(NodeId src, NodeId dst) {
  auto lock = [&](NodeId node) {
    return engine_->lock_manager.AcquireExclusive(
        id_, EntityKey::Node(node), /*wait=*/true, &locked_shards_);
  };
  const NodeId lo = std::min(src, dst), hi = std::max(src, dst);
  Status s = lock(lo);
  if (s.ok() && hi != lo) s = lock(hi);
  if (!s.ok()) RollbackLocked();
  return s;
}

void Transaction::Unwind(const EntityKey& key, const WriteRecord& w) {
  w.chain().AbortHead(id_);
  if (!w.created) return;
  if (w.node) {
    engine_->cache->EraseNode(key.id);
    engine_->store.ReleaseNodeId(key.id);
  } else {
    engine_->cache->EraseRel(key.id);
    engine_->store.ReleaseRelId(key.id);
  }
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Result<NodeId> Transaction::CreateNode(const std::vector<std::string>& labels,
                                       const NamedProperties& props) {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfReadOnly());
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());

  VersionData data;
  for (const std::string& name : labels) {
    NEOSI_ASSIGN_OR_RETURN(const LabelId label,
                           Token(TokenKind::kLabel, name, /*create=*/true));
    if (std::find(data.labels.begin(), data.labels.end(), label) ==
        data.labels.end()) {
      data.labels.push_back(label);
    }
  }
  for (const auto& [name, value] : props) {
    NEOSI_ASSIGN_OR_RETURN(
        const PropertyKeyId key,
        Token(TokenKind::kPropertyKey, name, /*create=*/true));
    data.props[key] = value;
  }

  NEOSI_ASSIGN_OR_RETURN(const NodeId id, engine_->store.AllocateNodeId());
  const EntityKey key = EntityKey::Node(id);
  // The fresh entry's empty chain is never evictable, and its pending
  // version pins it from the install on.
  NEOSI_RETURN_IF_ERROR(AcquireWriteLock(key));
  NEOSI_ASSIGN_OR_RETURN(CachedNode* node, engine_->cache->InsertNewNode(id));
  NEOSI_ASSIGN_OR_RETURN(auto pending,
                         node->chain.InstallUncommitted(id_, std::move(data)));
  writes_[key] = WriteRecord{node, nullptr, pending, /*created=*/true};
  created_nodes_.push_back(id);

  // SSI phantom protection: a fresh node invalidates full scans, and its
  // index entries the label and property scans that predate it (no Entity
  // footprint — the id was never visible, so no marker can exist on it).
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::AllNodes()));
  NEOSI_RETURN_IF_ERROR(
      StageIndexChanges(DiffIndexEntries(key, nullptr, &pending->data)));
  return id;
}

Status Transaction::SetNodeProperty(NodeId id, const std::string& key,
                                    PropertyValue value) {
  NEOSI_ASSIGN_OR_RETURN(const PropertyKeyId token,
                         Token(TokenKind::kPropertyKey, key, /*create=*/true));
  return Update(EntityKey::Node(id),
                [&](VersionData& d) { d.props[token] = std::move(value); });
}

Status Transaction::RemoveNodeProperty(NodeId id, const std::string& key) {
  auto token = Token(TokenKind::kPropertyKey, key, /*create=*/false);
  if (!token.ok()) {
    return token.status().IsNotFound() ? Status::OK() : token.status();
  }
  return Update(EntityKey::Node(id),
                [&](VersionData& d) { d.props.erase(*token); });
}

Status Transaction::AddLabel(NodeId id, const std::string& label) {
  NEOSI_ASSIGN_OR_RETURN(const LabelId token,
                         Token(TokenKind::kLabel, label, /*create=*/true));
  return Update(EntityKey::Node(id), [&](VersionData& d) {
    if (std::find(d.labels.begin(), d.labels.end(), token) == d.labels.end()) {
      d.labels.push_back(token);
    }
  });
}

Status Transaction::RemoveLabel(NodeId id, const std::string& label) {
  auto token = Token(TokenKind::kLabel, label, /*create=*/false);
  if (!token.ok()) {
    return token.status().IsNotFound() ? Status::OK() : token.status();
  }
  return Update(EntityKey::Node(id), [&](VersionData& d) {
    d.labels.erase(std::remove(d.labels.begin(), d.labels.end(), *token),
                   d.labels.end());
  });
}

Result<RelId> Transaction::CreateRelationship(NodeId src, NodeId dst,
                                              const std::string& type,
                                              const NamedProperties& props) {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfReadOnly());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());

  NEOSI_ASSIGN_OR_RETURN(const RelTypeId type_token,
                         Token(TokenKind::kRelType, type, /*create=*/true));
  VersionData data;
  for (const auto& [name, value] : props) {
    NEOSI_ASSIGN_OR_RETURN(
        const PropertyKeyId key,
        Token(TokenKind::kPropertyKey, name, /*create=*/true));
    data.props[key] = value;
  }

  // Endpoints must be visible in our snapshot.
  NEOSI_RETURN_IF_ERROR(VisibleVersion(EntityKey::Node(src)).status());
  NEOSI_RETURN_IF_ERROR(VisibleVersion(EntityKey::Node(dst)).status());
  NEOSI_RETURN_IF_ERROR(LockEndpoints(src, dst));

  // Re-check after acquiring the locks: a concurrent transaction may have
  // deleted an endpoint and committed while we waited. Creating the edge
  // anyway would dangle, so this is treated as a write-write conflict.
  {
    EpochManager::Guard guard(&engine_->epochs);
    for (NodeId endpoint : {src, dst}) {
      const EntityKey ekey = EntityKey::Node(endpoint);
      auto wit = writes_.find(ekey);
      if (wit != writes_.end()) {
        if (wit->second.pending->data.deleted) {
          RollbackLocked();
          return Status::Aborted("endpoint node deleted by this transaction");
        }
        continue;
      }
      auto cached = engine_->cache->GetNode(endpoint);
      if (!cached.ok()) {
        RollbackLocked();
        return Status::Aborted("endpoint node vanished concurrently");
      }
      auto latest = (*cached)->chain.LatestCommitted();
      if (!latest || latest->data.deleted) {
        RollbackLocked();
        return Status::Aborted(
            "endpoint node deleted by a concurrent transaction");
      }
    }
  }

  NEOSI_ASSIGN_OR_RETURN(const RelId rel_id, engine_->store.AllocateRelId());
  const EntityKey key = EntityKey::Rel(rel_id);
  NEOSI_RETURN_IF_ERROR(AcquireWriteLock(key));
  NEOSI_ASSIGN_OR_RETURN(
      CachedRel* rel,
      engine_->cache->InsertNewRel(rel_id, src, dst, type_token));
  NEOSI_ASSIGN_OR_RETURN(auto pending,
                         rel->chain.InstallUncommitted(id_, std::move(data)));
  writes_[key] = WriteRecord{nullptr, rel, pending, /*created=*/true};

  created_rels_by_node_[src].push_back(rel_id);
  if (dst != src) created_rels_by_node_[dst].push_back(rel_id);

  // SSI phantom protection: the new edge invalidates adjacency scans of
  // both endpoints, and its index entries the rel-property scans covering
  // its properties.
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Adjacency(src)));
  if (dst != src) {
    NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Adjacency(dst)));
  }
  NEOSI_RETURN_IF_ERROR(
      StageIndexChanges(DiffIndexEntries(key, nullptr, &pending->data)));
  return rel_id;
}

Status Transaction::DeleteRelationship(RelId id) {
  const EntityKey key = EntityKey::Rel(id);
  NEOSI_ASSIGN_OR_RETURN(WriteRecord* w, PendingVersion(key));
  const NodeId src = w->rel->src, dst = w->rel->dst;
  NEOSI_RETURN_IF_ERROR(LockEndpoints(src, dst));

  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Entity(key)));
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Adjacency(src)));
  if (dst != src) {
    NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Adjacency(dst)));
  }
  NEOSI_RETURN_IF_ERROR(
      StageIndexChanges(DiffIndexEntries(key, &w->pending->data, nullptr)));
  w->pending->data = VersionData{};
  w->pending->data.deleted = true;
  return Status::OK();
}

Status Transaction::SetRelProperty(RelId id, const std::string& key,
                                   PropertyValue value) {
  NEOSI_ASSIGN_OR_RETURN(const PropertyKeyId token,
                         Token(TokenKind::kPropertyKey, key, /*create=*/true));
  return Update(EntityKey::Rel(id),
                [&](VersionData& d) { d.props[token] = std::move(value); });
}

Status Transaction::RemoveRelProperty(RelId id, const std::string& key) {
  auto token = Token(TokenKind::kPropertyKey, key, /*create=*/false);
  if (!token.ok()) {
    return token.status().IsNotFound() ? Status::OK() : token.status();
  }
  return Update(EntityKey::Rel(id),
                [&](VersionData& d) { d.props.erase(*token); });
}

Status Transaction::DeleteNode(NodeId id) {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfReadOnly());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());

  // Visible relationships must be removed first (Neo4j semantics).
  auto visible_rels = GetRelationships(id, Direction::kBoth);
  if (!visible_rels.ok()) return visible_rels.status();
  if (!visible_rels->empty()) {
    return Status::FailedPrecondition(
        "node " + std::to_string(id) + " still has " +
        std::to_string(visible_rels->size()) + " relationship(s)");
  }

  const EntityKey key = EntityKey::Node(id);
  NEOSI_ASSIGN_OR_RETURN(WriteRecord* w, PendingVersion(key));

  // Adjacency conflict check at latest-committed state: a relationship
  // added by a concurrent committed transaction (invisible to our snapshot)
  // would dangle if we deleted the node -> first-updater-wins abort. We hold
  // the node's write lock, so no new attachment can race this check.
  std::vector<RelId> chain_ids;
  Status chain_status = engine_->store.RelChainOf(id, &chain_ids);
  if (!chain_status.ok()) return chain_status;
  EpochManager::Guard guard(&engine_->epochs);
  for (RelId rel_id : chain_ids) {
    auto wit = writes_.find(EntityKey::Rel(rel_id));
    if (wit != writes_.end() && wit->second.pending->data.deleted) {
      continue;  // We are deleting it in this transaction.
    }
    auto rel = engine_->cache->GetRel(rel_id);
    if (!rel.ok()) continue;  // Purged: certainly not live.
    auto latest = (*rel)->chain.LatestCommitted();
    if (latest && !latest->data.deleted) {
      RollbackLocked();
      return Status::Aborted(
          "node " + std::to_string(id) +
          " gained a relationship from a concurrent transaction");
    }
  }

  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Entity(key)));
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::AllNodes()));
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiWriteFootprint::Adjacency(id)));
  NEOSI_RETURN_IF_ERROR(
      StageIndexChanges(DiffIndexEntries(key, &w->pending->data, nullptr)));
  w->pending->data = VersionData{};
  w->pending->data.deleted = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const Version>> Transaction::VisibleVersion(
    const EntityKey& key) {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());

  // SIREAD marker BEFORE the walk (a serializable writer stamps its commit
  // before its post-stamp marker rescan, so one side always observes the
  // other; see ssi_tracker.h). Inserted even when the read lands NotFound:
  // the predicate "this id is invisible to me" is still a read.
  if (ssi_) engine_->ssi.AddEntityRead(ssi_, key);

  // Stock Neo4j read committed: short shared read lock around the read.
  const bool short_lock = isolation_ == IsolationLevel::kReadCommitted;
  if (short_lock) {
    Status s = engine_->lock_manager.AcquireShared(id_, key, &locked_shards_);
    if (!s.ok()) {
      RollbackLocked();
      return s;
    }
  }
  auto release = [&] {
    if (short_lock) engine_->lock_manager.Release(id_, key);
  };

  // One guard covers the lookup and every walk of the borrowed chain (taken
  // after the short lock: no guard is held across a lock wait).
  EpochManager::Guard guard(&engine_->epochs);
  auto chain = engine_->cache->GetChain(key);
  if (!chain.ok()) {
    release();
    return chain.status();
  }
  auto version = (*chain)->Visible(SnapshotTs(), id_);
  // Read-time conflict-out: versions committed after our snapshot are
  // rw-antidependencies this --rw--> writer (we read underneath them).
  if (ssi_) {
    std::vector<std::pair<TxnId, Timestamp>> newer;
    (*chain)->CommittedNewerThan(start_ts_, &newer);
    release();
    NEOSI_RETURN_IF_ERROR(SsiObserveNewer(newer));
  } else {
    release();
  }
  // Post-walk expiry check: if the sweep marked us DURING the walk, the
  // version we resolved (or the NotFound we are about to report) may
  // reflect reclaimed state — fail the read instead.
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  if (!version || version->data.deleted) {
    return Status::NotFound(key.ToString() + " not visible");
  }
  return version;
}

Result<NodeView> Transaction::GetNode(NodeId id) {
  auto version = VisibleVersion(EntityKey::Node(id));
  if (!version.ok()) return version.status();

  NodeView view;
  view.id = id;
  for (LabelId label : (*version)->data.labels) {
    auto name = engine_->store.labels().NameOf(label);
    if (!name.ok()) return name.status();
    view.labels.push_back(*name);
  }
  auto props = NameProps((*version)->data.props);
  if (!props.ok()) return props.status();
  view.props = std::move(*props);
  return view;
}

Result<RelView> Transaction::GetRelationship(RelId id) {
  auto version = VisibleVersion(EntityKey::Rel(id));
  if (!version.ok()) return version.status();
  EpochManager::Guard guard(&engine_->epochs);
  auto rel = engine_->cache->GetRel(id);
  if (!rel.ok()) return rel.status();

  RelView view;
  view.id = id;
  view.src = (*rel)->src;
  view.dst = (*rel)->dst;
  auto type_name = engine_->store.rel_types().NameOf((*rel)->type);
  if (!type_name.ok()) return type_name.status();
  view.type = *type_name;
  auto props = NameProps((*version)->data.props);
  if (!props.ok()) return props.status();
  view.props = std::move(*props);
  return view;
}

Result<PropertyValue> Transaction::PropertyOf(const EntityKey& entity,
                                              const std::string& key) {
  NEOSI_ASSIGN_OR_RETURN(const PropertyKeyId token,
                         Token(TokenKind::kPropertyKey, key, /*create=*/false));
  NEOSI_ASSIGN_OR_RETURN(auto version, VisibleVersion(entity));
  auto it = version->data.props.find(token);
  if (it == version->data.props.end()) {
    return Status::NotFound(entity.ToString() + " has no property \"" + key +
                            "\"");
  }
  return it->second;
}

Result<PropertyValue> Transaction::GetNodeProperty(NodeId id,
                                                   const std::string& key) {
  return PropertyOf(EntityKey::Node(id), key);
}

Result<PropertyValue> Transaction::GetRelProperty(RelId id,
                                                  const std::string& key) {
  return PropertyOf(EntityKey::Rel(id), key);
}

Result<bool> Transaction::NodeHasLabel(NodeId id, const std::string& label) {
  auto token = Token(TokenKind::kLabel, label, /*create=*/false);
  if (!token.ok()) {
    if (token.status().IsNotFound()) return false;
    return token.status();
  }
  auto version = VisibleVersion(EntityKey::Node(id));
  if (!version.ok()) return version.status();
  const auto& labels = (*version)->data.labels;
  return std::find(labels.begin(), labels.end(), *token) != labels.end();
}

bool Transaction::NodeExists(NodeId id) {
  return VisibleVersion(EntityKey::Node(id)).ok();
}

bool Transaction::RelExists(RelId id) {
  return VisibleVersion(EntityKey::Rel(id)).ok();
}

Result<std::vector<NodeId>> Transaction::AllNodes() {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());
  std::vector<NodeId> out;
  const Snapshot snap = ReadSnapshot();

  // Full-scan predicate read: the all-nodes SIREAD range marker makes any
  // later node creation/deletion a rw-antidependency into this transaction.
  if (ssi_) engine_->ssi.AddAllNodesRead(ssi_);
  std::vector<std::pair<TxnId, Timestamp>> newer;

  // Persistent store scan merged with cached versions: the enriched
  // iterator of §4. Tombstoned records are still in the store; visibility
  // filters them.
  Status s = engine_->store.ForEachNode([&](NodeId id) {
    EpochManager::Guard guard(&engine_->epochs);
    auto node = engine_->cache->GetNode(id);
    if (!node.ok()) return Status::OK();  // Purged between scan and resolve.
    auto version = (*node)->chain.Visible(snap.start_ts, snap.txn_id);
    if (version && !version->data.deleted) out.push_back(id);
    if (ssi_) (*node)->chain.CommittedNewerThan(start_ts_, &newer);
    return Status::OK();
  });
  NEOSI_RETURN_IF_ERROR(s);
  NEOSI_RETURN_IF_ERROR(SsiObserveNewer(newer));

  // Own created (still uncommitted) nodes are not in the store yet.
  for (NodeId id : created_nodes_) {
    auto it = writes_.find(EntityKey::Node(id));
    if (it != writes_.end() && !it->second.pending->data.deleted) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Post-scan expiry check: reclamation racing the scan could have pruned
  // snapshot-visible versions from chains the scan already passed.
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  return out;
}

Result<std::vector<uint64_t>> Transaction::ScanIndex(
    IndexId which, const std::string& name,
    const std::optional<PropertyValue>& lo,
    const std::optional<PropertyValue>& hi) {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());
  const TokenKind kind = which == IndexId::kLabel ? TokenKind::kLabel
                                                  : TokenKind::kPropertyKey;
  auto token = Token(kind, name, /*create=*/false);
  if (!token.ok()) {
    if (token.status().IsNotFound()) return std::vector<uint64_t>{};
    return token.status();
  }
  // Index-range SIREAD marker before the scan; anonymous conflict-out after
  // it (index entries only carry commit timestamps, not writer ids — see
  // SsiObserveAnonymous).
  const VersionedIndex& index = engine_->index(which);
  if (ssi_) engine_->ssi.AddIndexRead(ssi_, which, *token, lo, hi);
  std::vector<uint64_t> out = index.Scan(*token, lo, hi, ReadSnapshot());
  if (ssi_) {
    std::vector<Timestamp> conflicts;
    index.CollectConflictsOut(*token, lo, hi, start_ts_, &conflicts);
    NEOSI_RETURN_IF_ERROR(SsiObserveAnonymous(conflicts));
  }
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  return out;
}

Result<std::vector<NodeId>> Transaction::GetNodesByLabel(
    const std::string& label) {
  return ScanIndex(IndexId::kLabel, label, std::nullopt, std::nullopt);
}

Result<std::vector<NodeId>> Transaction::GetNodesByProperty(
    const std::string& key, const PropertyValue& value) {
  return ScanIndex(IndexId::kNodeProperty, key, value, value);
}

Result<std::vector<NodeId>> Transaction::GetNodesByPropertyRange(
    const std::string& key, const std::optional<PropertyValue>& lo,
    const std::optional<PropertyValue>& hi) {
  return ScanIndex(IndexId::kNodeProperty, key, lo, hi);
}

Result<std::vector<RelId>> Transaction::GetRelsByProperty(
    const std::string& key, const PropertyValue& value) {
  return ScanIndex(IndexId::kRelProperty, key, value, value);
}

Result<std::vector<RelId>> Transaction::GetRelationships(
    NodeId node, Direction direction,
    const std::optional<std::string>& type) {
  NEOSI_RETURN_IF_ERROR(CheckActive());

  // The anchor node must itself be visible.
  auto anchor = VisibleVersion(EntityKey::Node(node));
  if (!anchor.ok()) return anchor.status();

  RelTypeId type_token = kInvalidToken;
  if (type.has_value()) {
    auto token = Token(TokenKind::kRelType, *type, /*create=*/false);
    if (!token.ok()) {
      if (token.status().IsNotFound()) return std::vector<RelId>{};
      return token.status();
    }
    type_token = *token;
  }

  // Adjacency-range SIREAD marker: later relationship creation/deletion
  // touching this node is a rw-antidependency into this transaction (the
  // anchor read above already left its own entity marker).
  if (ssi_) engine_->ssi.AddAdjacencyRead(ssi_, node);

  // Enriched iterator (§4): persistent relationship chain merged with the
  // transaction's own in-cache, not-yet-committed relationships. One guard
  // covers every lookup and walk below.
  EpochManager::Guard guard(&engine_->epochs);
  std::vector<RelId> candidates;
  Status s = engine_->store.RelChainOf(node, &candidates);
  if (!s.ok() && !s.IsOutOfRange()) return s;
  auto created_it = created_rels_by_node_.find(node);
  if (created_it != created_rels_by_node_.end()) {
    candidates.insert(candidates.end(), created_it->second.begin(),
                      created_it->second.end());
  }

  const Snapshot snap = ReadSnapshot();
  std::vector<RelId> out;
  std::vector<std::pair<TxnId, Timestamp>> newer;
  for (RelId rel_id : candidates) {
    auto rel = engine_->cache->GetRel(rel_id);
    if (!rel.ok()) continue;  // Purged concurrently: invisible regardless.
    auto version = (*rel)->chain.Visible(snap.start_ts, snap.txn_id);
    if (ssi_) (*rel)->chain.CommittedNewerThan(start_ts_, &newer);
    if (!version || version->data.deleted) continue;

    const bool outgoing = (*rel)->src == node;
    const bool incoming = (*rel)->dst == node;
    if (direction == Direction::kOutgoing && !outgoing) continue;
    if (direction == Direction::kIncoming && !incoming) continue;
    if (type_token != kInvalidToken && (*rel)->type != type_token) continue;
    out.push_back(rel_id);
  }
  NEOSI_RETURN_IF_ERROR(SsiObserveNewer(newer));
  // Post-scan expiry check (see AllNodes).
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  return out;
}

Result<std::vector<NodeId>> Transaction::GetNeighbors(
    NodeId node, Direction direction,
    const std::optional<std::string>& type) {
  auto rels = GetRelationships(node, direction, type);
  if (!rels.ok()) return rels.status();
  std::vector<NodeId> out;
  out.reserve(rels->size());
  EpochManager::Guard guard(&engine_->epochs);
  for (RelId rel_id : *rels) {
    auto rel = engine_->cache->GetRel(rel_id);
    if (!rel.ok()) continue;
    out.push_back((*rel)->src == node ? (*rel)->dst : (*rel)->src);
  }
  return out;
}

Result<size_t> Transaction::Degree(NodeId node, Direction direction) {
  auto rels = GetRelationships(node, direction);
  if (!rels.ok()) return rels.status();
  return rels->size();
}

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

Status Transaction::Commit() {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  // Snapshot-too-old: an expired snapshot must not commit — its reads (and
  // the write images based on them) may predate reclamation. Rolls back
  // and releases every lock, so an expired writer cannot park a lock set
  // behind a commit that is doomed anyway.
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());

  PruneAnnihilated();
  if (writes_.empty()) return CommitWithoutWrites();

  // Stage 1 — validate, then sequence. The oracle's timestamp allocation is
  // the ONLY global synchronization point of the whole commit.
  NEOSI_RETURN_IF_ERROR(ValidateCommit());
  // Last expiry gate, immediately before the commit becomes irrevocable
  // (sequencing). Past this point expiry cannot affect correctness: every
  // read is done, validation pinned the write set under long locks, and
  // the commit's own effects carry its fresh commit timestamp.
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  // SSI dangerous-structure gate: serialized with every other serializable
  // commit decision under the tracker's commit mutex, which stays held
  // through the post-stamp rescan below — a concurrent serializable
  // reader's own commit decision therefore cannot interleave into the
  // window where our stamps and edges are only partially published. On
  // success we are in kCommitting — any peer's later check treats us as
  // committed.
  std::unique_lock<std::mutex> ssi_commit_guard;
  if (ssi_) {
    Status ssi_s =
        engine_->ssi.PreCommitCheck(ssi_, ssi_footprints_, &ssi_commit_guard);
    if (!ssi_s.ok()) {
      RollbackLocked();
      return ssi_s;
    }
  }
  const Timestamp ts = engine_->oracle.NextCommitTs();
  // Timestamps are dense: every exit below must hand `ts` back to the
  // oracle via FinishCommit, or the publication watermark stalls.

  // Stage 2 — durability: group-commit WAL append (+ shared fsync). The
  // record's LSN comes back PINNED: a fuzzy checkpoint's stable LSN cannot
  // advance past it (so the prefix truncation cannot drop it) until our
  // effects have reached the store and we unpin below. Checkpoints never
  // block commits anymore — they simply truncate up to the oldest pin.
  auto lsn = WriteCommitRecord(ts);
  if (!lsn.ok()) {
    engine_->oracle.FinishCommit(ts);  // Nothing applied at ts.
    RollbackLocked();
    return lsn.status();
  }

  // Failure injection: crash after WAL append, before store apply. The pin
  // is deliberately NOT released: like a real crash, the record must stay
  // replayable until recovery applies it.
  if (engine_->test_hooks.crash_before_store_apply.load()) {
    // The commit record is durable — recovery will replay it — so the SSI
    // record must read committed: peers' danger checks and marker pruning
    // would otherwise treat a durable commit as aborted and commit over a
    // dangerous structure whose effects exist after recovery.
    if (ssi_) engine_->ssi.FinishCommit(ssi_, ts);
    engine_->oracle.FinishCommit(ts);
    return Status::IOError("simulated crash before store apply");
  }
  if (engine_->test_hooks.stall_before_store_apply.load()) {
    engine_->test_hooks.stalled_commits.fetch_add(1);
    while (engine_->test_hooks.stall_before_store_apply.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Stage 3 — parallel application, outside any global lock: store apply,
  // version stamping, index stamping. Concurrent committers interleave
  // freely here; the long write locks (held until this commit has fully
  // applied and handed its timestamp back) keep each entity single-writer.
  Status s = ApplyToStore(ts);
  if (!s.ok()) {
    // Pin retained: the WAL record is now the only complete copy of this
    // commit; truncating it before recovery replays it would lose the
    // commit. The SSI record still publishes as committed — the commit is
    // durable and will be replayed, so serializable peers must not treat
    // this writer as aborted (pruning its markers and edges would let them
    // commit over a dangerous structure).
    if (ssi_) engine_->ssi.FinishCommit(ssi_, ts);
    engine_->oracle.FinishCommit(ts);
    return s;  // Store apply failure: recovery will repair from the WAL.
  }
  engine_->store.wal().Unpin(*lsn);

  s = StampVersions(ts);
  if (!s.ok()) {
    // Same as the store-apply failure above: the record is durable, so the
    // SSI side must publish the commit. Stamps may have partially landed —
    // run the post-stamp rescan too, so a reader that walked a stamped
    // chain in the window is still picked up (dooming it is the
    // conservative direction).
    if (ssi_) {
      engine_->ssi.FinishCommit(ssi_, ts);
      engine_->ssi.OnPostStamp(ssi_, ssi_footprints_);
      ssi_commit_guard.unlock();
    }
    engine_->oracle.FinishCommit(ts);
    return s;
  }
  StampIndexes(ts);

  // SSI finish BEFORE the oracle publishes ts — a reader that can observe
  // this commit must find its SIREAD edges fully recorded — then the
  // post-stamp rescan: any marker inserted by a reader that walked our
  // chains before our stamps became visible is picked up here (the reader
  // inserts its marker before walking; we stamp before rescanning; one
  // side always sees the other).
  if (ssi_) {
    engine_->ssi.FinishCommit(ssi_, ts);
    engine_->ssi.OnPostStamp(ssi_, ssi_footprints_);
    ssi_commit_guard.unlock();
  }

  // Failure injection: park between SSI finish and ordered publication —
  // the window a freshly begun transaction's snapshot can still predate
  // this commit (safe-snapshot race tests).
  if (engine_->test_hooks.stall_before_publication.load()) {
    engine_->test_hooks.stalled_publications.fetch_add(1);
    while (engine_->test_hooks.stall_before_publication.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Stage 4 — ordered publication: the watermark advances past ts once
  // every lower timestamp has also finished, and only then can a new
  // snapshot observe this commit.
  engine_->oracle.FinishCommit(ts);
  // Only now is the published read timestamp a lower bound on future
  // snapshots — tell the tracker, so SIREAD/edge pruning can advance past
  // the commits that are no longer observable.
  engine_->ssi.AdvanceSnapshotFloor(engine_->oracle.ReadTs());

  engine_->lock_manager.ReleaseAll(id_, locked_shards_);
  engine_->active_txns.Unregister(id_);
  state_ = TxnState::kCommitted;
  commit_ts_ = ts;

  // Publication is the GC daemon's pacing signal: when the backlog of
  // obsolete versions crosses the configured threshold, wake it now instead
  // of waiting out its interval. One relaxed atomic load in the common
  // case — no GC work happens on this thread.
  if (GcDaemon* daemon =
          engine_->gc_daemon.load(std::memory_order_acquire)) {
    daemon->NudgeIfBacklogged();
  }
  // Same pattern for the checkpoint daemon: a write burst that outgrows
  // the WAL threshold gets checkpointed now, not an interval later.
  if (CheckpointDaemon* daemon =
          engine_->checkpoint_daemon.load(std::memory_order_acquire)) {
    daemon->NudgeIfWalExceedsThreshold();
  }

  // Ack in publication order: once Commit() returns, this session's next
  // snapshot is guaranteed to include this commit (and every snapshot
  // anywhere that observes a later commit also observes this one).
  engine_->oracle.WaitUntilPublished(ts);
  return Status::OK();
}

void Transaction::PruneAnnihilated() {
  bool pruned = false;
  for (auto it = writes_.begin(); it != writes_.end();) {
    if (it->second.created && it->second.pending->data.deleted) {
      Unwind(it->first, it->second);
      it = writes_.erase(it);
      pruned = true;
    } else {
      ++it;
    }
  }
  if (!pruned) return;
  // Cancel the pending index entries of the entities just pruned.
  AbortIndexOps(std::stable_partition(
      index_ops_.begin(), index_ops_.end(), [&](const IndexChange& change) {
        return writes_.count(change.Entity()) != 0;
      }));
}

Status Transaction::CommitWithoutWrites() {
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());
  // Even a read-only serializable commit must pass the dangerous-structure
  // gate: a committed reader can be the incoming side of a pivot (that is
  // exactly the read-only-anomaly shape). Nothing is applied or logged.
  std::unique_lock<std::mutex> ssi_commit_guard;
  if (ssi_) {
    Status ssi_s =
        engine_->ssi.PreCommitCheck(ssi_, ssi_footprints_, &ssi_commit_guard);
    if (!ssi_s.ok()) {
      RollbackLocked();
      return ssi_s;
    }
  }
  // Commit timestamp for a writeless serializable txn: the newest read
  // timestamp bounds everything it observed, which is what peers' danger
  // checks compare against (critical for the read-only anomaly, where the
  // reader's commit ORDER relative to the pivot's out-neighbour matters).
  if (ssi_) {
    engine_->ssi.FinishCommit(ssi_, engine_->oracle.ReadTs());
    ssi_commit_guard.unlock();
  }
  engine_->lock_manager.ReleaseAll(id_, locked_shards_);
  engine_->active_txns.Unregister(id_);
  state_ = TxnState::kCommitted;
  return Status::OK();
}

Status Transaction::ValidateCommit() {
  if (!UsesSnapshotReads() ||
      engine_->options.conflict_policy != ConflictPolicy::kFirstCommitterWins) {
    return Status::OK();
  }
  for (const auto& [key, w] : writes_) {
    if (w.created) continue;
    if (w.chain().NewestCommitTs() > start_ts_) {
      RollbackLocked();
      return Status::Aborted(
          "write-write conflict detected at commit "
          "(first-committer-wins)");
    }
  }
  return Status::OK();
}

Result<Lsn> Transaction::WriteCommitRecord(Timestamp ts) {
  WalRecord record;
  record.txn_id = id_;
  record.commit_ts = ts;
  // Publication hint for replica appliers: every commit with a timestamp at
  // or below the CURRENT watermark already finished its append (appends
  // happen before publication), so it sits at a lower LSN than this record.
  record.publish_ts = engine_->oracle.ReadTs();
  // One op per written entity, carrying its final state: full post-state,
  // never a delta, so replay never needs the (possibly torn) on-disk
  // pre-state (see WalOpType::kNodeState). Same split as ApplyToStore.
  for (const auto& [key, w] : writes_) {
    const VersionData& data = w.pending->data;
    if (w.node) {
      record.ops.push_back(
          w.created    ? WalOp::CreateNode(key.id, data.labels, data.props)
          : data.deleted ? WalOp::DeleteNode(key.id)
                         : WalOp::NodeState(key.id, data.labels, data.props));
    } else {
      record.ops.push_back(
          w.created ? WalOp::CreateRel(key.id, w.rel->src, w.rel->dst,
                                       w.rel->type, data.props)
          : data.deleted ? WalOp::DeleteRel(key.id)
                         : WalOp::RelState(key.id, data.props));
    }
  }
  // pin=true: the returned lsn stays checkpoint-proof until the caller has
  // applied this commit to the stores and unpins it.
  return engine_->store.wal().group().Commit(
      record, engine_->options.sync_commits, /*pin=*/true);
}

Status Transaction::ApplyToStore(Timestamp ts) {
  int ops_budget = engine_->test_hooks.crash_after_n_store_ops.load();
  auto tick_budget = [&]() -> bool {
    if (ops_budget < 0) return false;
    if (ops_budget == 0) return true;
    --ops_budget;
    return false;
  };
  for (const auto& [key, w] : writes_) {
    if (tick_budget()) {
      return Status::IOError("simulated crash during store apply");
    }
    Status s;
    const VersionData& data = w.pending->data;
    if (w.node) {
      if (w.created) {
        s = engine_->store.PersistNewNode(key.id, data.labels, data.props, ts);
      } else if (data.deleted) {
        s = engine_->store.PersistNodeTombstone(key.id, ts);
      } else {
        s = engine_->store.PersistNodeState(key.id, data.labels, data.props,
                                            ts);
      }
    } else {
      if (w.created) {
        s = engine_->store.PersistNewRel(key.id, w.rel->src, w.rel->dst,
                                         w.rel->type, data.props, ts);
      } else if (data.deleted) {
        s = engine_->store.PersistRelTombstone(key.id, ts);
      } else {
        s = engine_->store.PersistRelState(key.id, data.props, ts);
      }
    }
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status Transaction::StampVersions(Timestamp ts) {
  for (auto it = writes_.begin(); it != writes_.end(); ++it) {
    const auto& [key, w] = *it;
    // CommitHead stamps obsolete_since on the superseded version (and on
    // tombstones) under the chain latch; no global ordering is needed.
    auto superseded = w.chain().CommitHead(id_, ts);
    if (!superseded.ok()) {
      // The stamped records leave the write set: their entries are no
      // longer pinned (eviction may free them) and nothing is left to undo.
      writes_.erase(writes_.begin(), it);
      return superseded.status();
    }
    if (*superseded) {
      engine_->gc_list.Append({key, *superseded, ts});
    }
    if (w.pending->data.deleted) {
      engine_->gc_list.Append({key, w.pending, ts});
    }
  }
  return Status::OK();
}

void Transaction::StampIndexes(Timestamp ts) {
  for (const IndexChange& change : index_ops_) {
    engine_->index(change.index).Commit(change.handle, ts);
  }
}

void Transaction::AbortIndexOps(std::vector<IndexChange>::iterator first) {
  for (auto it = index_ops_.end(); it != first;) {
    --it;
    engine_->index(it->index).Abort(it->handle);
  }
  index_ops_.erase(first, index_ops_.end());
}

void Transaction::RollbackLocked() {
  for (const auto& [key, w] : writes_) Unwind(key, w);
  writes_.clear();
  created_nodes_.clear();
  created_rels_by_node_.clear();
  AbortIndexOps(index_ops_.begin());

  // SSI: drop out of the tracker (prunes our markers, breaks our edges).
  // Idempotent and a no-op if we already reached kCommitted.
  if (ssi_) engine_->ssi.Abort(ssi_);

  engine_->lock_manager.ReleaseAll(id_, locked_shards_);
  engine_->active_txns.Unregister(id_);
  state_ = TxnState::kAborted;
}

Status Transaction::Abort() {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  RollbackLocked();
  return Status::OK();
}

}  // namespace neosi
