#include "graph/replica_applier.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/coding.h"
#include "graph/index_maintenance.h"
#include "storage/wal.h"

namespace neosi {

namespace {

/// Writer id the applier stamps replayed versions and index entries with.
/// It must be a real (never-allocated) transaction id:
///  - kNoTxn would make index CommitRemove match ALREADY-REMOVED committed
///    intervals (their removed_by is kNoTxn) and corrupt their removal
///    timestamps;
///  - a live reader's id would make VisibleAt treat the applier's pending
///    entries as that reader's own writes.
/// Reader txn ids count up from 1, so the top of the id space is free.
constexpr TxnId kApplierTxn = std::numeric_limits<TxnId>::max() - 1;

constexpr uint32_t kCursorMagic = 0x43525053;  // "SPRC"
constexpr size_t kCursorPayload = 4 + 8 + 4;   // magic + cursor + crc

}  // namespace

ReplicaApplier::ReplicaApplier(Engine* engine,
                               std::unique_ptr<ReplicationSource> source,
                               uint64_t poll_interval_ms,
                               uint64_t conflict_grace_ms)
    : engine_(engine),
      source_(std::move(source)),
      poll_interval_ms_(poll_interval_ms),
      conflict_grace_ms_(conflict_grace_ms) {}

ReplicaApplier::~ReplicaApplier() { Stop(); }

Status ReplicaApplier::Bootstrap(Timestamp recovered_ts) {
  cover_.store(recovered_ts, std::memory_order_release);

  Lsn cursor = 0;
  bool found = false;
  NEOSI_RETURN_IF_ERROR(ReadCursorFile(&cursor, &found));
  if (!found) {
    // No cursor yet: the local wal is either empty (fresh replica) or a
    // byte-for-byte seed of the primary's, so the local append cursor IS the
    // primary LSN to resume from (recovery already truncated any torn seed
    // tail, and the truncated suffix re-ships from here). Persist it before
    // any LOCAL append (checkpoint markers) can move the local LSN space
    // away from the primary's.
    cursor = engine_->store.wal().NextLsn();
    NEOSI_RETURN_IF_ERROR(WriteCursorFile(cursor));
  }
  cursor_.store(cursor, std::memory_order_release);
  persisted_cursor_ = cursor;
  ingested_lsn_ = cursor;
  return Status::OK();
}

void ReplicaApplier::Start() {
  std::lock_guard<std::mutex> guard(mu_);
  if (running_) return;
  running_ = true;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
}

void ReplicaApplier::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
    caught_up_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> guard(mu_);
  running_ = false;
}

void ReplicaApplier::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t seq = ++pass_seq_;
    lock.unlock();

    bool progressed = false;
    Status s = RunOnePass(&progressed);

    lock.lock();
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> err_guard(err_mu_);
        last_error_ = s;
      }
      // A cursor gap or shipped corruption never heals on its own: park and
      // keep serving the last published watermark instead of spinning.
      fatal_ = true;
      caught_up_cv_.notify_all();
      cv_.wait(lock, [this] { return stop_.load(std::memory_order_acquire); });
      break;
    }
    if (!progressed && pending_.empty()) {
      last_caught_up_seq_ = seq;
      caught_up_cv_.notify_all();
    }
    if (progressed) continue;  // Hot tail: poll again immediately.
    cv_.wait_for(lock, std::chrono::milliseconds(poll_interval_ms_),
                 [this] { return stop_.load(std::memory_order_acquire); });
  }
}

Status ReplicaApplier::RunOnce() {
  bool progressed = false;
  Status s = RunOnePass(&progressed);
  if (!s.ok()) {
    std::lock_guard<std::mutex> err_guard(err_mu_);
    last_error_ = s;
  }
  return s;
}

Status ReplicaApplier::RunOnePass(bool* progressed) {
  polls_.fetch_add(1, std::memory_order_relaxed);

  std::vector<ShippedRecord> batch;
  Lsn next = cursor_.load(std::memory_order_acquire);
  NEOSI_RETURN_IF_ERROR(
      source_->Poll(cursor_.load(std::memory_order_acquire), &batch, &next));
  *progressed = !batch.empty();

  for (ShippedRecord& shipped : batch) {
    NEOSI_RETURN_IF_ERROR(Ingest(std::move(shipped)));
  }
  cursor_.store(next, std::memory_order_release);

  NEOSI_RETURN_IF_ERROR(DrainPending());

  // The durable cursor must never skip an unapplied record: records still
  // buffered in pending_ have not been re-logged locally, so on restart
  // they must ship again (applied ones deduplicate by timestamp).
  Lsn persist = next;
  for (const auto& [ts, rec] : pending_) {
    persist = std::min(persist, rec.lsn);
  }
  if (persist != persisted_cursor_) {
    // The cursor file promises every record below it is durable locally:
    // sync the re-logged tail before moving the promise forward.
    NEOSI_RETURN_IF_ERROR(engine_->store.wal().Sync());
    NEOSI_RETURN_IF_ERROR(WriteCursorFile(persist));
    persisted_cursor_ = persist;
  }
  return Status::OK();
}

bool ReplicaApplier::WaitCaughtUp(uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  // Any pass numbered > the current one STARTS after this point, so its
  // poll observes everything the caller appended to the source before
  // calling.
  const uint64_t want = pass_seq_ + 1;
  const bool done = caught_up_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms), [this, want] {
        return fatal_ || last_caught_up_seq_ >= want ||
               stop_.load(std::memory_order_acquire);
      });
  return done && !fatal_ && last_caught_up_seq_ >= want;
}

Status ReplicaApplier::last_error() const {
  std::lock_guard<std::mutex> guard(err_mu_);
  return last_error_;
}

ReplicaApplier::RecordKind ReplicaApplier::Classify(const WalRecord& record) {
  bool purge = false;
  bool token = false;
  for (const WalOp& op : record.ops) {
    switch (op.type) {
      case WalOpType::kCheckpoint:
        return RecordKind::kCheckpointMarker;
      case WalOpType::kPurgeNode:
      case WalOpType::kPurgeRel:
        purge = true;
        break;
      case WalOpType::kCreateToken:
        token = true;
        break;
      default:
        // Any versioned mutation makes this a dense commit record, whatever
        // else rides along with it.
        return RecordKind::kCommit;
    }
  }
  if (purge) return RecordKind::kPurge;
  if (token) return RecordKind::kTokenOnly;
  return RecordKind::kCommit;
}

Status ReplicaApplier::Ingest(ShippedRecord shipped) {
  if (shipped.lsn < ingested_lsn_) return Status::OK();  // Re-ship overlap.
  ingested_lsn_ = shipped.lsn + 1;

  if (shipped.record.publish_ts >
      publish_ts_.load(std::memory_order_relaxed)) {
    publish_ts_.store(shipped.record.publish_ts, std::memory_order_release);
  }

  const Timestamp ts = shipped.record.commit_ts;
  const Timestamp cover = cover_.load(std::memory_order_acquire);
  switch (Classify(shipped.record)) {
    case RecordKind::kCheckpointMarker:
      // Primary checkpoint markers carry primary-relative stable LSNs;
      // re-logging one would point local recovery at garbage. The local
      // checkpoint daemon writes the replica's own markers.
      records_skipped_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    case RecordKind::kTokenOnly:
      // Tokens are unversioned and idempotent; apply immediately so the
      // catalog never lags the commits that reference it.
      return ApplyRecord(shipped.record);
    case RecordKind::kPurge:
      // A purge borrows the GC watermark as its timestamp. At or below the
      // cover every snapshot it could conflict with is bounded by cover;
      // above it, the commit that produced that timestamp has not been
      // replayed yet — buffer behind it (multimap keeps LSN order on ties).
      if (ts <= cover) {
        CancelConflictsBelow(ts);
        return ApplyRecord(shipped.record);
      }
      pending_.emplace(ts, std::move(shipped));
      return Status::OK();
    case RecordKind::kCommit:
      if (ts <= cover) {
        // Restart overlap: already applied AND re-logged before the crash.
        records_skipped_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      pending_.emplace(ts, std::move(shipped));
      return Status::OK();
  }
  return Status::Internal("unreachable record kind");
}

Status ReplicaApplier::DrainPending() {
  const Timestamp hint = publish_ts_.load(std::memory_order_acquire);
  Timestamp cover = cover_.load(std::memory_order_acquire);

  while (!pending_.empty()) {
    auto it = pending_.begin();
    const Timestamp ts = it->first;
    // Apply when the timestamp extends the dense prefix, or when the
    // publication hint proves every commit below it already shipped (all of
    // them sit at lower LSNs than the hint's record, and lower pending
    // timestamps drain first) — that is how cover jumps over timestamps
    // abandoned by failed primary commits.
    const bool applies = ts <= cover || ts == cover + 1 || ts <= hint;
    if (!applies) break;
    ShippedRecord shipped = std::move(it->second);
    pending_.erase(it);

    if (Classify(shipped.record) == RecordKind::kPurge) {
      CancelConflictsBelow(ts);
    }
    NEOSI_RETURN_IF_ERROR(ApplyRecord(shipped.record));
    if (ts > cover) {
      cover = ts;
      cover_.store(cover, std::memory_order_release);
      engine_->oracle.AdvanceReadTs(cover);
    }
  }

  if (hint > cover) {
    // Nothing pending at or below the hint remains: every timestamp in
    // (cover, hint] either applied above or never produced a record.
    cover = hint;
    cover_.store(cover, std::memory_order_release);
    engine_->oracle.AdvanceReadTs(cover);
  }
  return Status::OK();
}

Status ReplicaApplier::ApplyRecord(const WalRecord& record) {
  // Re-log FIRST, pinned against local checkpoint truncation until the
  // effects below are applied — exactly the primary's commit discipline, so
  // replica crash recovery is the ordinary wal replay.
  NEOSI_ASSIGN_OR_RETURN(const Lsn local_lsn,
                         engine_->store.wal().Append(record, /*pin=*/true));
  Status apply;
  for (const WalOp& op : record.ops) {
    switch (op.type) {
      case WalOpType::kCreateNode:
      case WalOpType::kDeleteNode:
      case WalOpType::kNodeState:
        apply = ApplyEntityOp(EntityKey::Node(op.id), op, record.commit_ts);
        break;
      case WalOpType::kCreateRel:
      case WalOpType::kDeleteRel:
      case WalOpType::kRelState:
        apply = ApplyEntityOp(EntityKey::Rel(op.id), op, record.commit_ts);
        break;
      case WalOpType::kPurgeNode:
      case WalOpType::kPurgeRel:
        apply = ApplyPurgeOp(op, record.commit_ts);
        break;
      case WalOpType::kCreateToken:
        apply = engine_->store.ApplyWalOp(op, record.commit_ts);
        break;
      case WalOpType::kCheckpoint:
        break;  // Stripped in Ingest; defensively inert here.
    }
    if (!apply.ok()) break;
  }
  engine_->store.wal().Unpin(local_lsn);
  if (apply.ok()) records_applied_.fetch_add(1, std::memory_order_relaxed);
  return apply;
}

Status ReplicaApplier::ApplyEntityOp(const EntityKey& key, const WalOp& op,
                                     Timestamp ts) {
  // Pin the PRE-state in the cache before the store changes: pinned
  // snapshots below `ts` must keep finding the version this op supersedes.
  // The pin is a pending version (a copy of the pre-state, rewritten to the
  // post-state below), which eviction never unpublishes. As for a
  // transaction's first write, it is installed and then confirmed inside
  // one guard, and retried if eviction unpublished the entry first.
  EpochManager::Guard guard(&engine_->epochs);
  VersionChain* chain = nullptr;
  std::shared_ptr<Version> pending;
  for (;;) {
    auto cached = engine_->cache->GetChain(key);
    if (!cached.ok()) {
      if (!cached.status().IsNotFound()) return cached.status();
      break;
    }
    chain = *cached;
    // Skip only strictly-older replays (defensive; Ingest dedupes records).
    // Equality must fall through: a record may carry several ops for one
    // entity, all sharing its commit_ts — the later ops stack same-ts
    // versions, and readers take the newest on a ts tie.
    if (chain->NewestCommitTs() > ts) return Status::OK();
    const std::shared_ptr<const Version> latest = chain->LatestCommitted();
    NEOSI_ASSIGN_OR_RETURN(
        pending, chain->InstallUncommitted(
                     kApplierTxn, latest != nullptr ? latest->data
                                                    : VersionData{}));
    if (engine_->cache->Holds(key, chain)) break;
    chain->AbortHead(kApplierTxn);
    chain = nullptr;
  }
  const std::shared_ptr<const Version> pre =
      chain != nullptr ? chain->LatestCommitted() : nullptr;

  VersionData post;
  Timestamp persisted_ts = kNoTimestamp;
  Status rs;
  Status s = engine_->store.ApplyWalOp(op, ts);
  if (s.ok()) {
    rs = ReadPersistedState(engine_->store, key, &post, &persisted_ts);
    if (!rs.ok() && !rs.IsNotFound()) s = rs;
  }
  if (!s.ok()) {
    if (chain != nullptr) chain->AbortHead(kApplierTxn);
    return s;
  }
  CommitIndexDiff(engine_, key, pre != nullptr ? &pre->data : nullptr,
                  rs.ok() ? &post : nullptr, kApplierTxn, ts);
  // No cache entry and the record was free before: a create replays with no
  // resident chain — a later reader materializes it lazily, and its
  // commit_ts keeps it invisible to snapshots below `ts`.
  if (chain == nullptr) return Status::OK();
  if (!rs.ok()) {
    chain->AbortHead(kApplierTxn);
    return Status::OK();
  }
  pending->data = std::move(post);
  NEOSI_ASSIGN_OR_RETURN(auto superseded, chain->CommitHead(kApplierTxn, ts));
  if (superseded != nullptr) engine_->gc_list.Append({key, superseded, ts});
  return Status::OK();
}

Status ReplicaApplier::ApplyPurgeOp(const WalOp& op, Timestamp ts) {
  // Mirrors the primary's GC: drop the cached chain, then reclaim the
  // store record. Every snapshot below the purge timestamp is gone (waited
  // out or expired in CancelConflictsBelow).
  if (op.type == WalOpType::kPurgeNode) {
    engine_->cache->EraseNode(op.id);
  } else {
    engine_->cache->EraseRel(op.id);
  }
  NEOSI_RETURN_IF_ERROR(engine_->store.ApplyWalOp(op, ts));
  purges_applied_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void ReplicaApplier::CancelConflictsBelow(Timestamp purge_ts) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(conflict_grace_ms_);
  for (;;) {
    // kMaxTimestamp fallback: with no pinning snapshots the purge proceeds.
    if (engine_->active_txns.Watermark(kMaxTimestamp) >= purge_ts) return;
    if (stop_.load(std::memory_order_acquire) ||
        std::chrono::steady_clock::now() >= deadline) {
      conflicts_cancelled_.fetch_add(
          engine_->active_txns.ExpireSnapshotsBelow(purge_ts),
          std::memory_order_relaxed);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Status ReplicaApplier::ReadCursorFile(Lsn* cursor, bool* found) {
  *found = false;
  std::unique_ptr<PagedFile> file;
  Status s =
      engine_->store.wal().dir()->OpenExisting(kCursorFileName, &file);
  if (s.IsNotFound()) return Status::OK();
  NEOSI_RETURN_IF_ERROR(s);
  char buf[kCursorPayload];
  if (file->Size() < kCursorPayload) {
    return Status::Corruption("replica cursor file is short");
  }
  NEOSI_RETURN_IF_ERROR(file->ReadAt(0, kCursorPayload, buf));
  if (DecodeFixed32(buf) != kCursorMagic ||
      DecodeFixed32(buf + 12) != Crc32c(buf, 12)) {
    return Status::Corruption("replica cursor file failed validation");
  }
  *cursor = DecodeFixed64(buf + 4);
  *found = true;
  return Status::OK();
}

Status ReplicaApplier::WriteCursorFile(Lsn cursor) {
  const std::shared_ptr<WalDir>& dir = engine_->store.wal().dir();
  const std::string tmp = std::string(kCursorFileName) + ".tmp";
  std::unique_ptr<PagedFile> file;
  NEOSI_RETURN_IF_ERROR(dir->Open(tmp, &file));
  NEOSI_RETURN_IF_ERROR(file->Truncate(0));
  char buf[kCursorPayload];
  EncodeFixed32(buf, kCursorMagic);
  EncodeFixed64(buf + 4, cursor);
  EncodeFixed32(buf + 12, Crc32c(buf, 12));
  NEOSI_RETURN_IF_ERROR(file->WriteAt(0, buf, kCursorPayload));
  // Named EIO point: a cursor-file fsync failure must fail the persist (the
  // in-memory cursor stays ahead, replay just redoes work) — never get
  // swallowed and let the durable cursor claim records the crashed kernel
  // dropped.
  NEOSI_RETURN_IF_ERROR(
      engine_->store.fault_hooks.Check("replica.cursor.sync"));
  NEOSI_RETURN_IF_ERROR(file->Sync());
  file.reset();
  NEOSI_RETURN_IF_ERROR(dir->Rename(tmp, kCursorFileName));
  return dir->SyncDir();
}

}  // namespace neosi
