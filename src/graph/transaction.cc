#include "graph/transaction.h"

#include <algorithm>
#include <mutex>

#include "graph/checkpoint_daemon.h"
#include "graph/gc_daemon.h"
#include "graph/graph_database.h"

namespace neosi {

namespace {

/// The token store that names index `which`'s keys.
TokenStore& IndexTokens(GraphStore& store, IndexId which) {
  return which == IndexId::kLabel ? store.labels() : store.prop_keys();
}

}  // namespace

Transaction::Transaction(Engine* engine, IsolationLevel isolation, TxnId id,
                         ActiveTxnTable::Slot* slot,
                         std::shared_ptr<SsiTxnInfo> ssi, bool read_only)
    : engine_(engine),
      isolation_(isolation),
      id_(id),
      start_ts_(slot->start_ts()),
      slot_(slot),
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
  if (!slot_->expired()) return Status::OK();
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

Status Transaction::SsiOnWrite(SsiTarget target) {
  if (!ssi_) return Status::OK();
  Status s = engine_->ssi.OnWrite(ssi_, target);
  if (!s.ok()) {
    RollbackLocked();
    return s;
  }
  ssi_writes_.push_back(std::move(target));
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
      (void)engine_->store.sync_points().Check("txn.write.pre_install");
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
  // A write that changes nothing leaves no index entry or SSI target: it must
  // not be able to fail a serializable transaction or doom concurrent
  // readers.
  if (changes.empty()) return Status::OK();
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Entity(key)));
  NEOSI_RETURN_IF_ERROR(StageIndexChanges(std::move(changes)));
  w->pending->data = std::move(post);
  return Status::OK();
}

Status Transaction::StageIndexChanges(std::vector<IndexChange> changes) {
  for (IndexChange& change : changes) {
    if (ssi_) {
      // Keyed by the token's name, as a scan's marker is: writing the tuple
      // is a rw-antidependency from every serializable scan of its range,
      // including one that ran before the token existed (Ports & Grittner).
      NEOSI_ASSIGN_OR_RETURN(
          const std::string name,
          IndexTokens(engine_->store, change.index).NameOf(change.token));
      NEOSI_RETURN_IF_ERROR(
          SsiOnWrite(SsiTarget::Index(change.index, name, change.value)));
    }
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
  // target — the id was never visible, so no marker can exist on it).
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::AllNodes()));
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
  NEOSI_RETURN_IF_ERROR(CheckVisible(EntityKey::Node(src)));
  NEOSI_RETURN_IF_ERROR(CheckVisible(EntityKey::Node(dst)));
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
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Adjacency(src)));
  if (dst != src) {
    NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Adjacency(dst)));
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

  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Entity(key)));
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Adjacency(src)));
  if (dst != src) {
    NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Adjacency(dst)));
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
    if (!rel.ok()) {
      if (rel.status().IsNotFound()) continue;  // Purged: certainly not live.
      return rel.status();
    }
    auto latest = (*rel)->chain.LatestCommitted();
    if (latest && !latest->data.deleted) {
      RollbackLocked();
      return Status::Aborted(
          "node " + std::to_string(id) +
          " gained a relationship from a concurrent transaction");
    }
  }

  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Entity(key)));
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::AllNodes()));
  NEOSI_RETURN_IF_ERROR(SsiOnWrite(SsiTarget::Adjacency(id)));
  NEOSI_RETURN_IF_ERROR(
      StageIndexChanges(DiffIndexEntries(key, &w->pending->data, nullptr)));
  w->pending->data = VersionData{};
  w->pending->data.deleted = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

template <typename Fn>
Transaction::VisibleResult<Fn> Transaction::WithVisible(const EntityKey& key,
                                                        Fn&& fn) {
  constexpr bool kTakesNode =
      std::is_invocable_v<Fn&, const Version&, CachedNode&>;
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());

  // SIREAD marker BEFORE the walk (a serializable writer stamps its commit
  // before its post-stamp marker rescan, so one side always observes the
  // other; see ssi_tracker.h). Inserted even when the read lands NotFound:
  // the predicate "this id is invisible to me" is still a read.
  if (ssi_) engine_->ssi.AddRead(ssi_, SsiTarget::Entity(key));

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

  // One guard covers the lookup, every walk of the borrowed chain and `fn`
  // (taken after the short lock: no guard is held across a lock wait).
  EpochManager::Guard guard(&engine_->epochs);
  CachedNode* node = nullptr;
  auto chain = [&]() -> Result<VersionChain*> {
    if constexpr (kTakesNode) {
      NEOSI_ASSIGN_OR_RETURN(node, engine_->cache->GetNode(key.id));
      // Requested now, the list's miss overlaps the chain walk's.
      ObjectCache::PrefetchRelList(*node);
      return &node->chain;
    } else {
      return engine_->cache->GetChain(key);
    }
  }();
  if (!chain.ok()) {
    release();
    return chain.status();
  }
  const Version* version = (*chain)->Visible(SnapshotTs(), id_);
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
  if (version == nullptr || version->data.deleted) {
    return Status::NotFound(key.ToString() + " not visible");
  }
  if constexpr (kTakesNode) {
    return fn(*version, *node);
  } else {
    return fn(*version);
  }
}

Status Transaction::CheckVisible(const EntityKey& key) {
  return WithVisible(key, [](const Version&) { return Status::OK(); });
}

Result<NodeView> Transaction::GetNode(NodeId id) {
  return WithVisible(EntityKey::Node(id),
                     [&](const Version& version) -> Result<NodeView> {
    NodeView view;
    view.id = id;
    for (LabelId label : version.data.labels) {
      NEOSI_ASSIGN_OR_RETURN(std::string name,
                             engine_->store.labels().NameOf(label));
      view.labels.push_back(std::move(name));
    }
    NEOSI_ASSIGN_OR_RETURN(view.props, NameProps(version.data.props));
    return view;
  });
}

Result<RelView> Transaction::GetRelationship(RelId id) {
  return WithVisible(EntityKey::Rel(id),
                     [&](const Version& version) -> Result<RelView> {
    NEOSI_ASSIGN_OR_RETURN(CachedRel* rel, engine_->cache->GetRel(id));
    RelView view;
    view.id = id;
    view.src = rel->src;
    view.dst = rel->dst;
    NEOSI_ASSIGN_OR_RETURN(view.type,
                           engine_->store.rel_types().NameOf(rel->type));
    NEOSI_ASSIGN_OR_RETURN(view.props, NameProps(version.data.props));
    return view;
  });
}

Result<PropertyValue> Transaction::PropertyOf(const EntityKey& entity,
                                              const std::string& key) {
  // The entity read (and its SIREAD marker) comes first: reading a key this
  // snapshot cannot name is still a read of the entity.
  return WithVisible(entity,
                     [&](const Version& version) -> Result<PropertyValue> {
    NEOSI_ASSIGN_OR_RETURN(
        const PropertyKeyId token,
        Token(TokenKind::kPropertyKey, key, /*create=*/false));
    auto it = version.data.props.find(token);
    if (it == version.data.props.end()) {
      return Status::NotFound(entity.ToString() + " has no property \"" +
                              key + "\"");
    }
    return it->second;
  });
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
  // Entity read first, as in PropertyOf.
  return WithVisible(EntityKey::Node(id),
                     [&](const Version& version) -> Result<bool> {
    auto token = Token(TokenKind::kLabel, label, /*create=*/false);
    if (!token.ok()) {
      if (token.status().IsNotFound()) return false;
      return token.status();
    }
    const auto& labels = version.data.labels;
    return std::find(labels.begin(), labels.end(), *token) != labels.end();
  });
}

bool Transaction::NodeExists(NodeId id) {
  return CheckVisible(EntityKey::Node(id)).ok();
}

bool Transaction::RelExists(RelId id) {
  return CheckVisible(EntityKey::Rel(id)).ok();
}

Result<std::vector<NodeId>> Transaction::AllNodes() {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());
  std::vector<NodeId> out;
  const Snapshot snap = ReadSnapshot();

  // Full-scan predicate read: the all-nodes SIREAD range marker makes any
  // later node creation/deletion a rw-antidependency into this transaction.
  if (ssi_) engine_->ssi.AddRead(ssi_, SsiTarget::AllNodes());
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
  NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
  NEOSI_RETURN_IF_ERROR(FailIfDoomed());
  // Index-range SIREAD marker before the name is resolved: it is keyed by
  // the name, so a scan of a name no token carries yet still conflicts
  // with the write that creates it.
  if (ssi_) engine_->ssi.AddRead(ssi_, SsiTarget::Index(which, name), lo, hi);
  // A serializable scan resolves a token created after its snapshot too:
  // every entry under it committed later, so the scan's result is the same,
  // and those commits must still reach the tracker as conflicts-out.
  auto token = IndexTokens(engine_->store, which)
                   .Lookup(name, ssi_ ? kMaxTimestamp : SnapshotTs());
  if (!token.ok()) {
    if (token.status().IsNotFound()) return std::vector<uint64_t>{};
    return token.status();
  }
  const VersionedIndex& index = engine_->index(which);
  std::vector<uint64_t> out = index.Scan(*token, lo, hi, ReadSnapshot());
  if (ssi_) {
    // Index entries carry commit timestamps, not writer ids: each later
    // commit is an anonymous conflict-out.
    std::vector<Timestamp> commits;
    index.CollectConflictsOut(*token, lo, hi, start_ts_, &commits);
    std::vector<std::pair<TxnId, Timestamp>> newer;
    for (Timestamp ts : commits) newer.emplace_back(kNoTxn, ts);
    NEOSI_RETURN_IF_ERROR(SsiObserveNewer(newer));
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

namespace {

/// Runs `visit` on the cache entry of each of `ids[0..n)`, a window at a
/// time: ResolveRels returns the window's resident entries as one batch,
/// and GetRel loads the rest. A relationship purged since the list was
/// read is skipped (invisible regardless); any other load error is
/// returned. The caller's guard covers the entries.
template <typename Visit>
Status VisitRels(ObjectCache& cache, const RelId* ids, size_t n,
                 Visit&& visit) {
  CachedRel* window[ObjectCache::kResolveWindow];
  for (size_t at = 0; at < n; at += ObjectCache::kResolveWindow) {
    const size_t count = std::min(n - at, ObjectCache::kResolveWindow);
    cache.ResolveRels(ids + at, count, window);
    for (size_t i = 0; i < count; ++i) {
      CachedRel* rel = window[i];
      if (rel == nullptr) {
        auto loaded = cache.GetRel(ids[at + i]);
        if (!loaded.ok()) {
          if (loaded.status().IsNotFound()) continue;
          return loaded.status();
        }
        rel = *loaded;
      }
      visit(*rel);
    }
  }
  return Status::OK();
}

}  // namespace

template <typename Emit>
Result<std::vector<std::invoke_result_t<Emit&, const CachedRel&>>>
Transaction::Adjacency(NodeId node, Direction direction,
                       const std::optional<std::string>& type, Emit emit) {
  using Out = std::vector<std::invoke_result_t<Emit&, const CachedRel&>>;
  // The anchor node must itself be visible. Its one lookup also yields the
  // relationship list, and the read's guard covers the whole walk.
  return WithVisible(
      EntityKey::Node(node),
      [&](const Version&, CachedNode& anchor) -> Result<Out> {
    // Adjacency-range SIREAD marker: later relationship creation/deletion
    // touching this node is a rw-antidependency into this transaction (the
    // anchor read already left its own entity marker). Placed, and the
    // walk below run, even for a type this snapshot cannot name: "no such
    // relationship" is still a read.
    if (ssi_) engine_->ssi.AddRead(ssi_, SsiTarget::Adjacency(node));

    bool type_known = true;
    RelTypeId type_token = kInvalidToken;
    if (type.has_value()) {
      auto token = Token(TokenKind::kRelType, *type, /*create=*/false);
      if (token.ok()) {
        type_token = *token;
      } else if (token.status().IsNotFound()) {
        type_known = false;
      } else {
        return token.status();
      }
    }

    // Enriched iterator (§4): the node's persistent relationship chain,
    // served from its cache entry's list, merged with the transaction's own
    // in-cache, not-yet-committed relationships.
    const RelIdList* persistent = nullptr;
    auto list = engine_->cache->RelListOf(&anchor);
    if (list.ok()) {
      persistent = *list;
    } else if (!list.status().IsOutOfRange()) {
      return list.status();
    }
    const std::vector<RelId>* created = nullptr;
    if (auto it = created_rels_by_node_.find(node);
        it != created_rels_by_node_.end()) {
      created = &it->second;
    }

    Out out;
    out.reserve((persistent != nullptr ? persistent->size() : 0) +
                (created != nullptr ? created->size() : 0));
    const Snapshot snap = ReadSnapshot();
    std::vector<std::pair<TxnId, Timestamp>> newer;
    auto visit = [&](const CachedRel& rel) {
      const Version* version = rel.chain.Visible(snap.start_ts, snap.txn_id);
      if (ssi_) rel.chain.CommittedNewerThan(start_ts_, &newer);
      if (!version || version->data.deleted || !type_known) return;

      const bool outgoing = rel.src == node;
      const bool incoming = rel.dst == node;
      if (!outgoing && !incoming) return;  // A recycled id.
      if (direction == Direction::kOutgoing && !outgoing) return;
      if (direction == Direction::kIncoming && !incoming) return;
      if (type_token != kInvalidToken && rel.type != type_token) return;
      out.push_back(emit(rel));
    };
    if (persistent != nullptr) {
      NEOSI_RETURN_IF_ERROR(VisitRels(*engine_->cache, persistent->begin(),
                                      persistent->size(), visit));
    }
    if (created != nullptr) {
      NEOSI_RETURN_IF_ERROR(VisitRels(*engine_->cache, created->data(),
                                      created->size(), visit));
    }
    NEOSI_RETURN_IF_ERROR(SsiObserveNewer(newer));
    // Post-scan expiry check (see AllNodes).
    NEOSI_RETURN_IF_ERROR(FailIfSnapshotExpired());
    return out;
  });
}

Result<std::vector<RelId>> Transaction::GetRelationships(
    NodeId node, Direction direction,
    const std::optional<std::string>& type) {
  return Adjacency(node, direction, type,
                   [](const CachedRel& rel) { return rel.id; });
}

Result<std::vector<NodeId>> Transaction::GetNeighbors(
    NodeId node, Direction direction,
    const std::optional<std::string>& type) {
  return Adjacency(node, direction, type, [node](const CachedRel& rel) {
    return rel.src == node ? rel.dst : rel.src;
  });
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

  // Stage 1 — before sequencing: every failure rolls back.
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
  // committed. Even a writeless commit passes it: a committed reader can
  // be the incoming side of a pivot (the read-only-anomaly shape).
  std::unique_lock<std::mutex> ssi_commit_guard;
  if (ssi_) {
    Status s =
        engine_->ssi.PreCommitCheck(ssi_, ssi_writes_, &ssi_commit_guard);
    if (!s.ok()) {
      RollbackLocked();
      return s;
    }
  }
  if (writes_.empty()) {
    // Nothing to log or apply. A writeless serializable commit publishes
    // the newest read timestamp, which bounds everything it observed — what
    // peers' danger checks compare against (the read-only anomaly turns on
    // this reader's commit ORDER relative to the pivot's out-neighbour).
    if (ssi_) {
      engine_->ssi.FinishCommit(ssi_, engine_->oracle.ReadTs());
      ssi_commit_guard.unlock();
    }
    End(TxnState::kCommitted);
    return Status::OK();
  }
  const Timestamp ts = engine_->oracle.NextCommitTs();
  // Timestamps are dense: every exit below hands `ts` back to the oracle
  // via FinishCommit, or the publication watermark stalls.

  // Stage 2 — durability: append the record (+ shared fsync). Its LSN comes
  // back PINNED: a fuzzy checkpoint's stable LSN cannot advance past it (so
  // the prefix truncation cannot drop it) until our effects have reached
  // the store and we unpin below. A failed append or flush has released
  // the pin again.
  const WalRecord record = CommitRecord(ts);
  auto lsn = engine_->store.wal().group().Commit(
      record, engine_->options.sync_commits, /*pin=*/true);
  if (!lsn.ok()) {
    engine_->oracle.FinishCommit(ts);  // Nothing applied at ts.
    RollbackLocked();
    return lsn.status();
  }

  // Stage 3 — application, outside any global lock: store apply, version
  // stamping, index stamping. Concurrent committers interleave freely
  // here; the long write locks (held until this commit has fully applied
  // and handed its timestamp back) keep each entity single-writer. A
  // failure before the store apply completes keeps the pin: the record is
  // then the only complete copy of the commit, and recovery replays it.
  Status s = engine_->store.sync_points().Check("commit.pre_apply");
  if (s.ok()) s = ApplyToStore(record);
  if (s.ok()) {
    engine_->store.wal().Unpin(*lsn);
    s = StampVersions(ts);
  }
  if (s.ok()) {
    StampIndexes(ts);
  } else {
    // Fail-stop: the record is logged but memory does not show it, so a
    // later writer would read the old state and commit over it. Poisoned
    // while our write locks still hold and before `ts` is handed back, the
    // log refuses every later append until a reopen replays the record.
    engine_->store.wal().Poison(s);
  }

  // Success or not, the record is logged: the SSI record finishes as
  // committed BEFORE the oracle publishes ts — a reader that can observe
  // this commit must find its SIREAD edges fully recorded, and peers must
  // not prune the markers of a commit that recovery replays. Then the
  // post-stamp rescan: any marker inserted by a reader that walked our
  // chains before our stamps became visible is picked up here (the reader
  // inserts its marker before walking; we stamp before rescanning; one
  // side always sees the other). After a failure the stamps may have only
  // partly landed; dooming such a reader is the conservative direction.
  if (ssi_) {
    engine_->ssi.FinishCommit(ssi_, ts);
    engine_->ssi.OnPostStamp(ssi_, ssi_writes_);
    ssi_commit_guard.unlock();
  }
  if (!s.ok()) {
    engine_->oracle.FinishCommit(ts);
    RollbackLocked();  // Withdraws the versions still pending.
    return s;
  }

  // Between SSI finish and ordered publication: the window in which a
  // freshly begun transaction's snapshot can still predate this commit.
  (void)engine_->store.sync_points().Check("commit.pre_publish");

  // Stage 4 — ordered publication: the watermark advances past ts once
  // every lower timestamp has also finished, and only then can a new
  // snapshot observe this commit.
  engine_->oracle.FinishCommit(ts);
  // Only now is the published read timestamp a lower bound on future
  // snapshots — tell the tracker, so SIREAD/edge pruning can advance past
  // the commits that are no longer observable.
  engine_->ssi.AdvanceSnapshotFloor(engine_->oracle.ReadTs());

  End(TxnState::kCommitted);
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

WalRecord Transaction::CommitRecord(Timestamp ts) const {
  WalRecord record;
  record.txn_id = id_;
  record.commit_ts = ts;
  // Publication hint for replica appliers: every commit with a timestamp at
  // or below the CURRENT watermark already finished its append (appends
  // happen before publication), so it sits at a lower LSN than this record.
  record.publish_ts = engine_->oracle.ReadTs();
  // One op per written entity, carrying its final state: full post-state,
  // never a delta, so replay never needs the (possibly torn) on-disk
  // pre-state (see WalOpType::kNodeState).
  record.ops.reserve(writes_.size());
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
  return record;
}

Status Transaction::ApplyToStore(const WalRecord& record) {
  // Entered before any store latch: a relationship-chain edit drops cached
  // lists under the node's write latch, and its guard nests in this one
  // instead of claiming a slot there (see ObjectCache::DropRelList).
  EpochManager::Guard guard(&engine_->epochs);
  for (const WalOp& op : record.ops) {
    NEOSI_RETURN_IF_ERROR(
        engine_->store.sync_points().Check("commit.apply.op"));
    NEOSI_RETURN_IF_ERROR(engine_->store.Persist(op, record.commit_ts));
  }
  return Status::OK();
}

Status Transaction::StampVersions(Timestamp ts) {
  for (auto it = writes_.begin(); it != writes_.end(); ++it) {
    const auto& [key, w] = *it;
    // Read before the stamp: once committed, the version no longer pins
    // its entry, and eviction may free both.
    const bool tombstone = w.pending->data.deleted;
    // CommitHead runs under the chain latch; no global ordering is needed.
    auto superseded = w.chain().CommitHead(id_, ts);
    if (!superseded.ok()) {
      // The stamped records leave the write set: their entries are no
      // longer pinned (eviction may free them) and nothing is left to undo.
      writes_.erase(writes_.begin(), it);
      return superseded.status();
    }
    if (*superseded) engine_->gc_list.Append({key, ts, /*tombstone=*/false});
    if (tombstone) engine_->gc_list.Append({key, ts, /*tombstone=*/true});
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
  End(TxnState::kAborted);
}

void Transaction::End(TxnState state) {
  engine_->lock_manager.ReleaseAll(id_, locked_shards_);
  engine_->active_txns.Unregister(slot_);
  state_ = state;
}

Status Transaction::Abort() {
  NEOSI_RETURN_IF_ERROR(CheckActive());
  RollbackLocked();
  return Status::OK();
}

}  // namespace neosi
